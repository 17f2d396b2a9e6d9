package server

import (
	"container/list"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/query"
	"mbrtopo/internal/topo"
)

// Result caching for /v1/query: answers are memoised under a key that
// includes the instance's mutation generation, so invalidation is
// free — every committed mutation bumps the generation, which changes
// the key of every subsequent lookup and lets stale entries age out
// of the LRU instead of being hunted down. A cached answer is
// therefore always the answer the live index would give: same match
// lines, same stats line, zero page reads. Sharded instances key on
// the vector of per-tile generations (mutations route to exactly one
// tile, which bumps only that tile).

// cachedResult is one stored answer: the match lines exactly as they
// were rendered for the original response (replayed with a single
// write, so a hit is byte-identical to the miss that filled it and
// pays no per-match marshalling) — at most maxCachedBytes of them, the
// lineWriter's bound — and the statistics of the traversal that
// produced them.
type cachedResult struct {
	lines []byte
	stats query.Stats
}

// resultCache is a mutex-guarded LRU keyed by cacheKey strings.
type resultCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	lru     *list.List // front = most recently used

	hits      counter
	misses    counter
	evictions counter
}

// cacheSlot is the LRU element payload.
type cacheSlot struct {
	key string
	res *cachedResult
}

// newResultCache returns nil for capacity <= 0 (caching disabled).
func newResultCache(capacity int) *resultCache {
	if capacity <= 0 {
		return nil
	}
	return &resultCache{
		cap:     capacity,
		entries: make(map[string]*list.Element, capacity),
		lru:     list.New(),
	}
}

// get returns the entry under key, promoting it to most recent.
func (c *resultCache) get(key string) (*cachedResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*cacheSlot).res, true
}

// put stores res under key, evicting from the cold end over capacity.
func (c *resultCache) put(key string, res *cachedResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheSlot).res = res
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheSlot{key: key, res: res})
	for c.lru.Len() > c.cap {
		cold := c.lru.Back()
		c.lru.Remove(cold)
		delete(c.entries, cold.Value.(*cacheSlot).key)
		c.evictions.Add(1)
	}
}

// counters snapshots the hit/miss/eviction counters.
func (c *resultCache) counters() (hits, misses, evictions uint64) {
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}

// register adds the cache families (a server without a cache has none).
func (c *resultCache) register(m *Metrics) {
	m.counter("topod_cache_hits_total", "Queries answered from the result cache (zero page reads).", &c.hits)
	m.counter("topod_cache_misses_total", "Query cache lookups that fell through to a traversal.", &c.misses)
	m.counter("topod_cache_evictions_total", "Result-cache entries displaced from the LRU cold end.", &c.evictions)
	m.counter("topod_cache_oversize_total", "Query answers streamed but not stored because they outgrew the 1 MiB entry bound.", &m.cacheOversize)
}

// bumpGen advances the instance's mutation generation: once per
// mutate, after the tree change is visible and before the caller is
// acknowledged (and once per follower bootstrap, which replaces the
// contents wholesale), so an answer computed before a mutation is never
// found under a key built after it.
func (inst *Instance) bumpGen() { inst.gen.Add(1) }

// Generation returns the instance's mutation generation (cache-key
// component; also a cheap "has anything changed" probe for tests).
func (inst *Instance) Generation() uint64 { return inst.gen.Load() }

// versionKey renders the generation component of a cache key: the
// instance's own generation, extended on a sharded parent with the
// per-tile vector (parent routing bumps the mutated tile, so the
// vector changes whenever any tile's data does).
func (inst *Instance) versionKey() string {
	if len(inst.tiles) == 0 {
		return strconv.FormatUint(inst.gen.Load(), 10)
	}
	var b strings.Builder
	b.WriteString(strconv.FormatUint(inst.gen.Load(), 10))
	for _, t := range inst.tiles {
		b.WriteByte(',')
		b.WriteString(strconv.FormatUint(t.gen.Load(), 10))
	}
	return b.String()
}

// cacheKey normalises one query's shape. The generation makes stale
// entries unreachable; everything else (relation sets as bitmaps,
// reference coordinates, limit, the optional second conjunction term)
// pins the exact question asked.
func cacheKey(index, version string, rels topo.Set, ref geom.Rect, conj bool, rels2 topo.Set, ref2 geom.Rect, limit int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|g%s|r%d|%g,%g,%g,%g|l%d",
		index, version, uint8(rels), ref.Min.X, ref.Min.Y, ref.Max.X, ref.Max.Y, limit)
	if conj {
		fmt.Fprintf(&b, "|r%d|%g,%g,%g,%g",
			uint8(rels2), ref2.Min.X, ref2.Min.Y, ref2.Max.X, ref2.Max.Y)
	}
	return b.String()
}
