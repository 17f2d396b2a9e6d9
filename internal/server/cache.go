package server

import (
	"container/list"
	"sync"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/mbr"
	"mbrtopo/internal/query"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/wal"
)

// Result caching for /v1/query: answers are memoised under the exact
// question asked, and a commit removes only the entries whose answers
// it can change. That is the paper's Table 1 read the other way round:
// an object with MBR r enters or leaves the answer to (q, R) only if
// ConfigOf(r, q) is one of R's candidate configurations — the filter
// step's own leaf test. So a stored entry goes when
//
//   - one of the commit's records passes its leaf test: for a
//     conjunction, both terms' (a record only one term admits is in
//     neither the old answer nor the new);
//   - it was cut short by its limit: traversal order decides which
//     matches such an answer holds, and any write can reshape the tree;
//   - a follower bootstrap replaces the index's contents wholesale.
//
// A batch is tested through its MBR against the Table 2 propagation of
// each term, as the descent tests a node rectangle: sound for every
// record under it, and one test an entry however large the batch.
//
// The fill race: a miss registers its fill as pending before the
// traversal pins the tree. A commit invalidates after its change is
// published and under the cache mutex, marking the pending fills it
// would have evicted, and put refuses a marked fill. A fill therefore
// either saw the write or is marked.
//
// What a hit replays: exactly the live answer's multiset of match lines
// (one per registration, so an id stored under two admitted rectangles
// is two lines) and its candidates count. Line order and node_accesses
// are those of the traversal that filled the entry; a write outside the
// window may have reshaped the tree since (splits, reinsertion,
// condensing), so only a hit with no write in between is byte-identical
// to a fresh traversal.

// cachedResult is one stored answer: the match lines exactly as they
// were rendered for the original response (replayed with a single
// write, so a hit pays no per-match marshalling) — at most
// maxCachedBytes of them, the lineWriter's bound — and the statistics
// of the traversal that produced them.
type cachedResult struct {
	lines []byte
	stats query.Stats
}

// cacheKey is one query's shape: the index and everything the request
// asks of it. conj marks a two-term conjunction (rels2, ref2 are zero
// otherwise).
type cacheKey struct {
	index       string
	rels, rels2 topo.Set
	ref, ref2   geom.Rect
	conj        bool
	limit       int
}

// cacheTerm is one term of a cached question: the descent's filter
// tests of its Table 1 candidates, compiled against its reference when
// the entry is made — the leaf test for one record, the node test (the
// candidates' propagation) for a batch's MBR.
type cacheTerm struct {
	leaf, node mbr.Pred
}

func newCacheTerm(rels topo.Set, ref geom.Rect) cacheTerm {
	cands := mbr.CandidatesSet(rels)
	return cacheTerm{leaf: mbr.Filter(cands, ref), node: mbr.Filter(mbr.Propagation(cands), ref)}
}

// admits is the term's filter test on r: the leaf test for one record,
// the node test for a batch's MBR.
func (t *cacheTerm) admits(r geom.Rect, batch bool) bool {
	if batch {
		return t.node.Has(r)
	}
	return t.leaf.Has(r)
}

// cacheEntry is one question: pending while its fill runs, stored once
// put accepts the answer.
type cacheEntry struct {
	key   cacheKey
	terms []cacheTerm
	cut   bool // evicted by every write of its index (see changedBy)
	stale bool // pending only: a commit changed the answer after the fill began
	res   *cachedResult
}

func newCacheEntry(key cacheKey) *cacheEntry {
	e := &cacheEntry{key: key, cut: key.limit > 0}
	e.terms = append(e.terms, newCacheTerm(key.rels, key.ref))
	if key.conj {
		e.terms = append(e.terms, newCacheTerm(key.rels2, key.ref2))
	}
	return e
}

// changedBy reports whether a commit of r (a batch's MBR when batch is
// set) may change the entry's answer. Until put knows how many matches
// a limited fill took, the fill counts as cut.
func (e *cacheEntry) changedBy(r geom.Rect, batch bool) bool {
	if e.cut {
		return true
	}
	for i := range e.terms {
		if !e.terms[i].admits(r, batch) {
			return false
		}
	}
	return true
}

// resultCache is a mutex-guarded LRU of stored entries plus the set of
// pending fills.
type resultCache struct {
	mu      sync.Mutex
	cap     int
	entries map[cacheKey]*list.Element
	lru     *list.List // of *cacheEntry; front = most recently used
	pending map[*cacheEntry]struct{}

	hits          counter
	misses        counter
	evictions     counter
	invalidations counter
}

// newResultCache returns nil for capacity <= 0 (caching disabled).
func newResultCache(capacity int) *resultCache {
	if capacity <= 0 {
		return nil
	}
	return &resultCache{
		cap:     capacity,
		entries: make(map[cacheKey]*list.Element, capacity),
		lru:     list.New(),
		pending: make(map[*cacheEntry]struct{}),
	}
}

// lookup returns the stored answer under key, promoting it to most
// recent. On a miss it registers and returns a pending fill instead,
// which the caller must hand to put whether or not it has an answer.
func (c *resultCache) lookup(key cacheKey) (*cachedResult, *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.hits.Add(1)
		return el.Value.(*cacheEntry).res, nil
	}
	c.misses.Add(1)
	fill := newCacheEntry(key)
	c.pending[fill] = struct{}{}
	return nil, fill
}

// put ends a fill: it stores res (nil when the stream did not complete
// or outgrew the entry bound) unless a commit marked the fill, and
// evicts from the cold end over capacity.
func (c *resultCache) put(fill *cacheEntry, res *cachedResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.pending, fill)
	if res == nil || fill.stale {
		return
	}
	fill.res = res
	fill.cut = fill.key.limit > 0 && res.stats.Candidates >= fill.key.limit
	if el, ok := c.entries[fill.key]; ok {
		c.lru.Remove(el) // a concurrent fill of the same question came first
	}
	c.entries[fill.key] = c.lru.PushFront(fill)
	for c.lru.Len() > c.cap {
		c.remove(c.lru.Back())
		c.evictions.Add(1)
	}
}

func (c *resultCache) remove(el *list.Element) {
	c.lru.Remove(el)
	delete(c.entries, el.Value.(*cacheEntry).key)
}

// invalidate applies the rule to a commit of recs on index: it removes
// the stored entries the records may change and marks such pending
// fills. Call it after the change is visible to new traversals.
func (c *resultCache) invalidate(index string, recs []wal.Record) {
	r, batch := recs[0].Rect, len(recs) > 1
	for _, rec := range recs[1:] {
		r = r.Union(rec.Rect)
	}
	c.evict(index, func(e *cacheEntry) bool { return e.changedBy(r, batch) })
}

// invalidateAll removes every entry of index and marks its pending
// fills: a follower bootstrap replaced the contents.
func (c *resultCache) invalidateAll(index string) {
	c.evict(index, func(*cacheEntry) bool { return true })
}

func (c *resultCache) evict(index string, changed func(*cacheEntry) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*cacheEntry); e.key.index == index && changed(e) {
			c.remove(el)
			c.invalidations.Add(1)
		}
		el = next
	}
	for e := range c.pending {
		if e.key.index == index && changed(e) {
			e.stale = true
		}
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
	m.counter("topod_cache_invalidations_total", "Result-cache entries removed because a commit or a follower bootstrap could change their answers.", &c.invalidations)
	m.counter("topod_cache_oversize_total", "Query answers streamed but not stored because they outgrew the 1 MiB entry bound.", &m.cacheOversize)
}
