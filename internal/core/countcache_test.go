package core

import (
	"testing"

	"gsqlgo/internal/darpe"
	"gsqlgo/internal/graph"
	"gsqlgo/internal/match"
	"gsqlgo/internal/value"
)

const cacheQuerySrc = `CREATE QUERY Reach() {
  SumAccum<int> @n;
  R = SELECT t FROM V:s -(D1>*)- V:t ACCUM t.@n += 1;
  PRINT R[R.name, R.@n];
}`

// TestCountCacheWarmRun is the acceptance-criteria assertion: the
// first run of an installed query populates the count cache (misses
// and SDMC runs, no hits), and a warm re-run against the unchanged
// graph performs ZERO SDMC BFS runs — every distinct source hits.
func TestCountCacheWarmRun(t *testing.T) {
	g := graph.BuildRandomMixedGraph(20, 60, 11)
	e := New(g, Options{})
	if err := e.Install(cacheQuerySrc); err != nil {
		t.Fatal(err)
	}
	res1, err := e.Run("Reach", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Stats.CountCacheMisses == 0 || res1.Stats.CountCacheHits != 0 {
		t.Fatalf("cold run: hits=%d misses=%d", res1.Stats.CountCacheHits, res1.Stats.CountCacheMisses)
	}
	if res1.Stats.SDMCRuns != res1.Stats.CountCacheMisses {
		t.Fatalf("cold run: SDMCRuns=%d, want %d (one per miss)", res1.Stats.SDMCRuns, res1.Stats.CountCacheMisses)
	}
	res2, err := e.Run("Reach", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.SDMCRuns != 0 || res2.Stats.CountCacheMisses != 0 {
		t.Fatalf("warm run: SDMCRuns=%d misses=%d, want 0/0", res2.Stats.SDMCRuns, res2.Stats.CountCacheMisses)
	}
	if res2.Stats.CountCacheHits != res1.Stats.CountCacheMisses {
		t.Fatalf("warm run: hits=%d, want %d", res2.Stats.CountCacheHits, res1.Stats.CountCacheMisses)
	}
	if resultSig(res1) != resultSig(res2) {
		t.Fatal("warm run output diverged from cold run")
	}
}

// TestCountCacheEpochInvalidation mutates the graph between runs: the
// cache must drop every entry (same epoch coupling that invalidates
// Freeze()'s CSR) and the rerun must recompute — with results equal to
// a fresh engine's.
func TestCountCacheEpochInvalidation(t *testing.T) {
	g := graph.BuildRandomMixedGraph(12, 30, 5)
	e := New(g, Options{})
	if err := e.Install(cacheQuerySrc); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run("Reach", nil); err != nil {
		t.Fatal(err)
	}
	if e.counts.Load().len() == 0 {
		t.Fatal("cold run left the cache empty")
	}
	// Topology mutation: connect two vertices with a fresh D1 edge so
	// cached counts would now be wrong.
	if _, err := g.AddEdge("D1", 0, graph.VID(g.NumVertices()-1), nil); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run("Reach", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CountCacheHits != 0 || res.Stats.SDMCRuns == 0 {
		t.Fatalf("post-mutation run: hits=%d SDMCRuns=%d, want 0 hits and fresh runs",
			res.Stats.CountCacheHits, res.Stats.SDMCRuns)
	}
	// Correctness against an engine that never saw the old topology.
	fresh := New(g, Options{CountCacheSize: -1})
	if err := fresh.Install(cacheQuerySrc); err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run("Reach", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resultSig(res) != resultSig(want) {
		t.Fatal("post-mutation cached engine disagrees with fresh engine")
	}
}

// TestCountCacheDisabled checks the negative-size opt-out: every run
// recomputes and the hit counter stays zero.
func TestCountCacheDisabled(t *testing.T) {
	g := graph.BuildRandomMixedGraph(10, 25, 9)
	e := New(g, Options{CountCacheSize: -1})
	if err := e.Install(cacheQuerySrc); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res, err := e.Run("Reach", nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.CountCacheHits != 0 || res.Stats.SDMCRuns == 0 {
			t.Fatalf("run %d with cache disabled: hits=%d SDMCRuns=%d", i, res.Stats.CountCacheHits, res.Stats.SDMCRuns)
		}
	}
}

// TestCountCacheLRUCap white-boxes the bound: at cap 2, inserting a
// third key evicts the least recently used.
func TestCountCacheLRUCap(t *testing.T) {
	g := graph.BuildRandomMixedGraph(5, 8, 1)
	cc := newCountCache(g, 2)
	d := darpe.MustCompile("D1>*")
	epoch := g.Epoch()
	key := func(src graph.VID) countKey {
		return countKey{d: d, sem: match.AllShortestPaths, src: src}
	}
	for src := graph.VID(0); src < 3; src++ {
		cc.put(key(src), match.CountASP(g, d, src), epoch)
	}
	if cc.len() != 2 {
		t.Fatalf("cache len=%d, want cap 2", cc.len())
	}
	if cc.get(key(0), epoch) != nil {
		t.Error("oldest entry survived past the cap")
	}
	if cc.get(key(1), epoch) == nil || cc.get(key(2), epoch) == nil {
		t.Error("recent entries evicted")
	}
	// get refreshes recency: touching key 1 makes key 2 the eviction
	// victim on the next insert.
	cc.get(key(1), epoch)
	cc.put(key(3), match.CountASP(g, d, 3), epoch)
	if cc.get(key(2), epoch) != nil || cc.get(key(1), epoch) == nil {
		t.Error("LRU recency not updated by get")
	}
	// A put under a stale epoch is dropped.
	if _, err := g.AddVertex("V", "extra", map[string]value.Value{}); err != nil {
		t.Fatal(err)
	}
	cc.put(key(4), match.CountASP(g, d, 0), epoch)
	if cc.len() != 0 {
		t.Errorf("stale-epoch put inserted (len=%d); mutation must clear the cache", cc.len())
	}
}

// TestCountCacheStaleSnapshotReader models an MVCC reader that pinned
// a snapshot, then a writer published new topology before the reader
// got to the cache. The reader's gets must miss (the cache now tracks
// the newer head epoch — serving it those counts would be correct for
// the head but wrong for its snapshot) and its puts must be dropped,
// while a reader at the head epoch still caches normally.
func TestCountCacheStaleSnapshotReader(t *testing.T) {
	g := graph.BuildRandomMixedGraph(12, 30, 7)
	cc := newCountCache(g, 16)
	d := darpe.MustCompile("D1>*")
	key := func(src graph.VID) countKey {
		return countKey{d: d, sem: match.AllShortestPaths, src: src}
	}

	// A reader pins a snapshot, computes, but has not inserted yet.
	snap := g.Snapshot()
	staleEpoch := snap.Epoch()
	staleCounts := match.CountASP(snap, d, 0)

	// Writer publishes new topology; a head-epoch reader warms the
	// cache for the new epoch.
	if _, err := g.AddEdge("D1", 1, 2, nil); err != nil {
		t.Fatal(err)
	}
	headEpoch := g.Epoch()
	headCounts := match.CountASP(g, d, 0)
	cc.put(key(0), headCounts, headEpoch)
	if got := cc.get(key(0), headEpoch); got != headCounts {
		t.Fatal("head-epoch reader must hit its own entry")
	}

	// The stale reader finishes after the publish: get misses even
	// though the key exists, and its put is dropped.
	if got := cc.get(key(0), staleEpoch); got != nil {
		t.Fatal("stale-epoch get served a newer-epoch entry")
	}
	cc.put(key(1), staleCounts, staleEpoch)
	if got := cc.get(key(1), headEpoch); got != nil {
		t.Fatal("stale-epoch put was inserted")
	}
	// The head entry survives the stale reader's traffic.
	if got := cc.get(key(0), headEpoch); got != headCounts {
		t.Fatal("head entry lost after stale-reader traffic")
	}
	if cc.len() != 1 {
		t.Fatalf("cache len = %d, want 1", cc.len())
	}
}

// TestCountCacheSemanticsKeyed runs the same DARPE under two
// per-query SEMANTICS overrides on one engine: the (DFA, semantics,
// source) key must keep their counts apart.
func TestCountCacheSemanticsKeyed(t *testing.T) {
	g := graph.BuildDiamondChain(3) // 2^3 shortest paths end to end
	e := New(g, Options{})
	install := func(name, sem string) {
		src := `CREATE QUERY ` + name + `() SEMANTICS ` + sem + ` {
  SumAccum<int> @n;
  R = SELECT t FROM V:s -(E>*)- V:t WHERE s.name == "v0" AND t.name == "v3" ACCUM t.@n += 1;
  PRINT R[R.name, R.@n];
}`
		if err := e.Install(src); err != nil {
			t.Fatal(err)
		}
	}
	install("Asp", "asp")
	install("Exists", "exists")
	runCount := func(name string) int64 {
		res, err := e.Run(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Printed[0].Rows[0][1].Int()
	}
	if got := runCount("Asp"); got != 8 {
		t.Fatalf("asp count = %d, want 8", got)
	}
	// Same DFA, same sources, different semantics: must not serve the
	// ASP entry.
	if got := runCount("Exists"); got != 1 {
		t.Fatalf("exists count = %d, want 1", got)
	}
	// And re-running each stays warm and correct.
	if got := runCount("Asp"); got != 8 {
		t.Fatalf("warm asp count = %d, want 8", got)
	}
}
