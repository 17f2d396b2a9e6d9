package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/index"
	"mbrtopo/internal/pagefile"
	"mbrtopo/internal/query"
	"mbrtopo/internal/topo"
	"mbrtopo/internal/wal"
	"mbrtopo/internal/watch"
	"mbrtopo/internal/workload"
)

// TestBootstrapRefusesBadSnapshots: a follower decodes a bootstrap
// snapshot as it arrives, teeing the bytes into N.flat.tmp. A snapshot
// that fails any check — a header claiming 2³¹ nodes in a 1 TiB section
// with nothing after it, a flipped byte, fewer bytes than the preamble
// announced — is refused as corrupt, the lying header having cost less
// than 1 MiB of allocation; N.flat stays what the last good bootstrap
// wrote, no tmp file is left, and the previous state goes on serving.
func TestBootstrapRefusesBadSnapshots(t *testing.T) {
	items := workload.NewDataset(workload.Medium, 2000, 0, 3).Items
	dir := t.TempDir()
	psrv := New(Config{})
	defer psrv.Close()
	primary, err := psrv.AddIndex(IndexSpec{Name: "main", Kind: index.KindRStar, PageSize: 512,
		Dir: dir, Fsync: wal.SyncNever}, items)
	if err != nil {
		t.Fatal(err)
	}
	image, err := os.ReadFile(filepath.Join(dir, "main.flat"))
	if err != nil {
		t.Fatal(err)
	}
	gen, seq, _ := primary.dur.position()
	pos := replPos{gen, seq}

	fdir := t.TempDir()
	fsrv := New(Config{})
	defer fsrv.Close()
	follower, err := fsrv.AddIndex(IndexSpec{Name: "main", Kind: index.KindRStar, PageSize: 512,
		Dir: fdir, Fsync: wal.SyncNever, Follower: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	target := &replica{inst: follower}
	if err := target.bootstrap(pos, bytes.NewReader(image), int64(len(image))); err != nil {
		t.Fatal(err)
	}
	flatPath := filepath.Join(fdir, "main.flat")
	if kept, err := os.ReadFile(flatPath); err != nil || !bytes.Equal(kept, image) {
		t.Fatalf("the bootstrap persisted %d bytes (%v), not the %d it received", len(kept), err, len(image))
	}

	lying := bytes.Clone(image[:128])
	binary.LittleEndian.PutUint64(lying[32:40], 1<<40)
	binary.LittleEndian.PutUint32(lying[52:56], 1<<31)
	binary.LittleEndian.PutUint32(lying[124:128], crc32.Checksum(lying[:124], crc32.MakeTable(crc32.Castagnoli)))
	flipped := bytes.Clone(image)
	flipped[len(flipped)/2] ^= 0x40
	for _, c := range []struct {
		name     string
		snap     []byte
		size     int64
		maxAlloc uint64 // 0: not bounded here
	}{
		{"a header claiming 2^31 nodes", lying, 1 << 20, 1 << 20},
		{"a flipped byte", flipped, int64(len(image)), 0},
		{"fewer bytes than announced", image[:len(image)-100], int64(len(image)), 0},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := target.bootstrap(pos, bytes.NewReader(c.snap), c.size)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, pagefile.ErrCorrupt) {
			t.Errorf("%s: Bootstrap = %v, want ErrCorrupt", c.name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; c.maxAlloc > 0 && got >= c.maxAlloc {
			t.Errorf("%s: refusing it allocated %d bytes, want less than %d", c.name, got, c.maxAlloc)
		}
		if kept, err := os.ReadFile(flatPath); err != nil || !bytes.Equal(kept, image) {
			t.Errorf("%s: N.flat changed (%v)", c.name, err)
		}
		if _, err := os.Stat(flatPath + ".tmp"); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: a tmp checkpoint was left behind (%v)", c.name, err)
		}
		if !follower.Healthy() || follower.ReadIndex().Len() != len(items) {
			t.Errorf("%s: the follower no longer serves its %d objects", c.name, len(items))
		}
	}
}

// TestReplSnapshotIsThePinnedVersion: a bootstrap pins the tree version,
// the position and the WAL tail under the durable lock and walks and
// streams the image after releasing it, so writes land while the
// snapshot is still on the wire. The stream must still carry exactly the
// image of the version at the preamble's position, and the writes must
// follow it as the records after that position.
func TestReplSnapshotIsThePinnedVersion(t *testing.T) {
	primary, pts, _ := newReplPrimary(t, 20000, 0)
	pinst, err := primary.instance("main")
	if err != nil {
		t.Fatal(err)
	}
	gen, seq, _ := pinst.dur.position()
	var want bytes.Buffer
	if err := index.WriteFlat(pinst.ReadIndex(), &want, gen); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(pts.URL + "/v1/replicate?index=main")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rd := wal.NewReader(resp.Body)
	_, p, err := rd.Next()
	if err != nil || len(p) != preambleLen || word(p, 2) != uint64(want.Len()) {
		t.Fatalf("first frame %x (%v), want a preamble announcing a %d-byte image", p, err, want.Len())
	}
	if start := (replPos{word(p, 0), word(p, 1)}); start != (replPos{gen, seq}) {
		t.Fatalf("the stream starts at %v, the primary was at %d/%d", start, gen, seq)
	}
	const writes = 40
	for i := range writes {
		x := float64(3000 + 10*i)
		if err := pinst.Insert(geom.R(x, x, x+1, x+1), uint64(900000+i)); err != nil {
			t.Fatal(err)
		}
	}

	got := make([]byte, want.Len())
	if _, err := io.ReadFull(rd, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("the stream carried %d bytes that are not the %d-byte image of the pinned version", len(got), want.Len())
	}
	for i := 0; i < writes; {
		rec, p, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		if len(p) == heartbeatLen {
			continue
		}
		if p != nil || rec.OID != uint64(900000+i) {
			t.Fatalf("frame %d after the image is oid %d (a %d-byte frame of the stream's own if not 0), want the record of oid %d at %d/%d",
				i+1, rec.OID, len(p), 900000+i, gen, seq+uint64(i)+1)
		}
		i++
	}
}

// TestReplicaWatchEndsOnBootstrap: a bootstrap replaces a replica's
// contents with a new image, a change no commit batch describes, so it
// ends every watch subscription of the index with a terminal reason
// instead of leaving it silent about the swap. A
// subscriber that resubscribes starts from the new baseline, and the
// events of the records applied after it replay to what the tree holds.
func TestReplicaWatchEndsOnBootstrap(t *testing.T) {
	image := func(gen uint64, oids ...uint64) []byte {
		idx, err := index.NewWithPageSize(index.KindRTree, 512)
		if err != nil {
			t.Fatal(err)
		}
		for _, oid := range oids {
			if err := idx.Insert(geom.R(float64(oid), 0, float64(oid)+1, 1), oid); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := index.WriteFlat(idx, &buf, gen); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	srv := New(Config{})
	defer srv.Close()
	inst, err := srv.AddIndex(IndexSpec{Name: "main", Kind: index.KindRTree, PageSize: 512,
		Dir: t.TempDir(), Fsync: wal.SyncNever, Follower: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	target := &replica{inst: inst}
	bootstrap := func(gen uint64, oids ...uint64) {
		snap := image(gen, oids...)
		if err := target.bootstrap(replPos{gen: gen}, bytes.NewReader(snap), int64(len(snap))); err != nil {
			t.Fatal(err)
		}
	}
	apply := func(gen, seq, oid uint64) {
		rec := wal.Record{Op: wal.OpInsert, OID: oid, Rect: geom.R(float64(oid), 0, float64(oid)+1, 1)}
		if err := target.apply(replPos{gen, seq - 1}, []wal.Record{rec}); err != nil {
			t.Fatal(err)
		}
	}
	// replay folds a subscriber's events into its baseline and reports
	// whether the subscription is still open.
	replay := func(sub *watch.Subscription, members map[uint64]bool) bool {
		for {
			select {
			case ev, ok := <-sub.Events():
				if !ok {
					return false
				}
				members[ev.OID] = ev.Type != watch.Exit
				if !members[ev.OID] {
					delete(members, ev.OID)
				}
			default:
				return true
			}
		}
	}
	everything := geom.R(-1, -1, 100, 100)

	bootstrap(1, 1)
	sub, err := inst.watch.Subscribe(everything, topo.NotDisjoint, 64)
	if err != nil {
		t.Fatal(err)
	}
	bootstrap(2, 1, 2)
	bootstrap(3, 1, 2, 3)
	apply(3, 1, 4)
	members := map[uint64]bool{1: true}
	if replay(sub, members) {
		t.Fatalf("the subscription outlived two bootstraps: its events replay to %v while the tree holds 1 2 3 4", slices.Sorted(maps.Keys(members)))
	}
	if got := sub.EndReason(); got != watchResetReason {
		t.Fatalf("end reason %q, want %q", got, watchResetReason)
	}

	sub, err = inst.watch.Subscribe(everything, topo.NotDisjoint, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.watch.Unsubscribe(sub)
	apply(3, 2, 5)
	members = map[uint64]bool{1: true, 2: true, 3: true, 4: true}
	if !replay(sub, members) || len(members) != 5 || !members[5] {
		t.Fatalf("after resubscribing, events replay to %v, want 1 2 3 4 5", slices.Sorted(maps.Keys(members)))
	}
}

// TestReplicaSelfJoinBesideBootstraps: a self-join reads its index once.
// Bootstraps swap a replica's tree between two versions while
// self-joins run, with the right side omitted and named; every answer
// must be one version's, so no (o, o) pair and exactly that version's
// pair count. Reading the view once per side let a swap land between
// the two reads, and the join then paired two trees with each other,
// (o, o) pairs and all.
func TestReplicaSelfJoinBesideBootstraps(t *testing.T) {
	versions := [2][]index.Item{}
	for v := range versions {
		for oid := uint64(1); oid <= 24; oid++ {
			x := float64(oid)
			versions[v] = append(versions[v], index.Item{Rect: geom.R(x, 0, x+2+float64(v), 1), OID: oid})
		}
	}
	var trees [2]index.Index
	var want [2]int
	for v, items := range versions {
		idx, err := index.NewPacked(index.KindRStar, 512, items)
		if err != nil {
			t.Fatal(err)
		}
		trees[v] = idx
		res, err := query.JoinTopological(idx, idx, topo.NotDisjoint, query.JoinOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want[v] = len(res.Pairs)
	}
	if want[0] == want[1] {
		t.Fatalf("both versions self-join to %d pairs: the counts cannot tell them apart", want[0])
	}
	srv := New(Config{})
	defer srv.Close()
	inst, err := srv.AddIndex(IndexSpec{Name: "main", Kind: index.KindRStar, PageSize: 512,
		Dir: t.TempDir(), Fsync: wal.SyncNever, Follower: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	target := &replica{inst: inst}
	// bootstrap installs version gen % 2 as generation gen.
	bootstrap := func(gen uint64) error {
		var snap bytes.Buffer
		if err := index.WriteFlat(trees[gen%2], &snap, gen); err != nil {
			return err
		}
		return target.bootstrap(replPos{gen: gen}, &snap, int64(snap.Len()))
	}
	if err := bootstrap(2); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	swaps := make(chan error, 1)
	go func() {
		gen := uint64(3)
		for ; ; gen++ {
			select {
			case <-stop:
				swaps <- nil
				return
			default:
			}
			if err := bootstrap(gen); err != nil {
				swaps <- err
				return
			}
		}
	}()
	h := srv.Handler()
	for i := 0; i < 3000; i++ {
		req := JoinRequest{Left: "main", Relations: []string{"equal", "meet", "overlap", "inside", "contains", "covers", "covered_by"}}
		if i%2 == 1 {
			req.Right = "main"
		}
		body, _ := json.Marshal(req)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/join", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("join %d: HTTP %d: %s", i, rec.Code, rec.Body)
		}
		pairs := 0
		for line := range strings.Lines(rec.Body.String()) {
			var jl JoinLine
			if err := json.Unmarshal([]byte(line), &jl); err != nil {
				t.Fatalf("join %d: bad line %q: %v", i, line, err)
			}
			switch {
			case jl.Stats != nil:
				if jl.Stats.Pairs != pairs {
					t.Fatalf("join %d: the trailer counts %d pairs, the stream %d", i, jl.Stats.Pairs, pairs)
				}
			case jl.Error != "":
				t.Fatalf("join %d: %s", i, jl.Error)
			default:
				if *jl.LeftOID == *jl.RightOID {
					t.Fatalf("join %d (right %q): object %d paired with itself: the join read two tree versions", i, req.Right, *jl.LeftOID)
				}
				pairs++
			}
		}
		if pairs != want[0] && pairs != want[1] {
			t.Fatalf("join %d (right %q): %d pairs, but a version self-joins to %d or %d", i, req.Right, pairs, want[0], want[1])
		}
	}
	close(stop)
	if err := <-swaps; err != nil {
		t.Fatal(err)
	}
}
