package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"gsqlgo/internal/core"
	"gsqlgo/internal/graph"
	"gsqlgo/internal/replication"
	"gsqlgo/internal/storage"
)

// replicaHarness is one follower process life: store + engine + server
// + the Run goroutine, wired exactly the way cmd/gsqld wires them.
type replicaHarness struct {
	fw     *replication.Follower
	eng    *core.Engine
	srv    *Server
	cancel context.CancelFunc
	done   chan error
}

func startReplica(t *testing.T, leaderURL, dir string) *replicaHarness {
	t.Helper()
	fw, err := replication.OpenFollower(context.Background(), replication.FollowerConfig{
		LeaderURL: leaderURL,
		Dir:       dir,
		// Small chunks and a short poll so catch-up takes many fetches —
		// the lag gauge gets observable intermediate values.
		PollWait: 50 * time.Millisecond,
		MaxChunk: 2048,
		Backoff:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := core.New(fw.Graph(), core.Options{Workers: 2})
	srv := New(Config{Engine: eng, Follower: fw})
	fw.Bind(srv.ReplicationLock(), func(st *storage.Store) { eng.SetGraph(st.Graph()) }, srv.AddTrace)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- fw.Run(ctx) }()
	return &replicaHarness{fw: fw, eng: eng, srv: srv, cancel: cancel, done: done}
}

func (h *replicaHarness) stop(t *testing.T) {
	t.Helper()
	h.cancel()
	select {
	case err := <-h.done:
		if err != nil {
			t.Fatalf("follower run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower did not stop within 10s")
	}
	if err := h.fw.Close(); err != nil {
		t.Fatal(err)
	}
}

// waitReplicaCaughtUp polls until the follower's position reaches the
// leader's current one. Call with the leader quiescent.
func waitReplicaCaughtUp(t *testing.T, h *replicaHarness, leader *storage.Store) {
	t.Helper()
	wantSeq, wantOff := leader.Position()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		seq, off := h.fw.Position()
		if seq == wantSeq && off == wantOff {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	seq, off := h.fw.Position()
	t.Fatalf("follower stuck at (%d, %d), leader at (%d, %d)", seq, off, wantSeq, wantOff)
}

// lagGauge scrapes gsqld_replication_lag_records off the follower's
// /metrics endpoint. Returns (value, true) or (0, false) if absent.
func lagGauge(s *Server) (int64, bool) {
	for _, line := range strings.Split(do(s, "GET", "/metrics", "").Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "gsqld_replication_lag_records "); ok {
			n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			if err != nil {
				return 0, false
			}
			return n, true
		}
	}
	return 0, false
}

func snapshotSig(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	data, err := storage.EncodeSnapshot(g)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func addPerson(t *testing.T, s *Server, key string, age int) {
	t.Helper()
	body := fmt.Sprintf(`{"type":"Person","key":%q,"attrs":{"name":%q,"age":%d}}`,
		key, "n-"+key, age)
	if w := do(s, "POST", "/graph/vertices", body); w.Code != http.StatusCreated {
		t.Fatalf("add vertex %s: %d %s", key, w.Code, w.Body)
	}
}

func addKnows(t *testing.T, s *Server, src, dst string, since int) {
	t.Helper()
	body := fmt.Sprintf(`{"type":"Knows","src":{"type":"Person","key":%q},"dst":{"type":"Person","key":%q},"attrs":{"since":%d}}`,
		src, dst, since)
	if w := do(s, "POST", "/graph/edges", body); w.Code != http.StatusCreated {
		t.Fatalf("add edge %s-%s: %d %s", src, dst, w.Code, w.Body)
	}
}

func installDegree(t *testing.T, s *Server) {
	t.Helper()
	// do() sends no Content-Type, so the install route reads raw GSQL.
	if w := do(s, "POST", "/queries", degreeQuery); w.Code != http.StatusCreated {
		t.Fatalf("install: %d %s", w.Code, w.Body)
	}
}

func healthRole(t *testing.T, s *Server) string {
	t.Helper()
	return decode[map[string]string](t, do(s, "GET", "/healthz", ""))["role"]
}

// TestReplicationEndToEnd is the acceptance test for the replication
// subsystem at the serving layer: a leader takes >10k mutations over
// HTTP while a follower bootstraps, tails, serves installed read
// queries throughout, rejects writes with 403 read_only, survives a
// restart mid-tail, and converges to a bit-identical graph — with the
// lag gauge going visibly nonzero during catch-up and exactly zero
// after.
func TestReplicationEndToEnd(t *testing.T) {
	leaderDir, replicaDir := t.TempDir(), t.TempDir()
	st, err := storage.Open(leaderDir, storage.Options{Init: socialInit})
	if err != nil {
		t.Fatal(err)
	}
	leader := New(Config{Engine: core.New(st.Graph(), core.Options{Workers: 2}), Store: st})
	ts := httptest.NewServer(leader)
	defer ts.Close()
	if role := healthRole(t, leader); role != "leader" {
		t.Fatalf("leader role = %q", role)
	}

	// Seed data, then checkpoint so the follower's bootstrap snapshot
	// actually carries state (not just the empty seed generation).
	installDegree(t, leader)
	const seed = 100
	for i := 0; i < seed; i++ {
		addPerson(t, leader, fmt.Sprintf("seed-%d", i), 20+i%50)
	}
	if w := do(leader, "POST", "/admin/checkpoint", "{}"); w.Code != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", w.Code, w.Body)
	}

	// ---- follower process one: bootstrap + tail under live writes ----
	rep := startReplica(t, ts.URL, replicaDir)
	if role := healthRole(t, rep.srv); role != "follower" {
		t.Fatalf("follower role = %q", role)
	}
	installDegree(t, rep.srv)

	// Mutations and checkpoints are refused with the typed read-only
	// error; reads keep working. The rejection advertises the leader in
	// both the Leader header and the body so a client can redirect the
	// write with no out-of-band configuration.
	for _, route := range []string{"/graph/vertices", "/graph/vertices/attrs", "/graph/edges", "/admin/checkpoint"} {
		w := do(rep.srv, "POST", route, `{"type":"Person","key":"x"}`)
		if w.Code != http.StatusForbidden {
			t.Fatalf("follower POST %s: %d, want 403", route, w.Code)
		}
		if got := w.Header().Get("Leader"); got != ts.URL {
			t.Fatalf("follower POST %s: Leader header %q, want %q", route, got, ts.URL)
		}
		resp := decode[errorResponse](t, w)
		if resp.Code != "read_only" {
			t.Fatalf("follower POST %s: code %q, want read_only", route, resp.Code)
		}
		if resp.Leader != ts.URL {
			t.Fatalf("follower POST %s: body leader %q, want %q", route, resp.Leader, ts.URL)
		}
	}

	// Phase A: 5k+ writes on the leader while the main goroutine keeps
	// reading from the follower and sampling its lag gauge.
	const phaseA = 5000
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; i < phaseA; i++ {
			addPerson(t, leader, fmt.Sprintf("a-%d", i), i%80)
			if i%500 == 499 {
				addKnows(t, leader, fmt.Sprintf("a-%d", i), fmt.Sprintf("a-%d", i-1), 2000+i)
			}
		}
	}()
	var maxLag int64
	reads := 0
	for done := false; !done; {
		select {
		case <-writerDone:
			done = true
		default:
		}
		if w := do(rep.srv, "POST", "/queries/Degree/run", "{}"); w.Code != http.StatusOK {
			t.Fatalf("follower read during tail: %d %s", w.Code, w.Body)
		}
		reads++
		if lag, ok := lagGauge(rep.srv); ok && lag > maxLag {
			maxLag = lag
		}
	}
	if reads == 0 {
		t.Fatal("no follower reads ran during the write phase")
	}

	// Stop the follower mid-tail — phase B happens while it is down.
	rep.stop(t)

	// Phase B: more writes and a WAL rotation for process two to cross.
	const phaseB = 5000
	for i := 0; i < phaseB; i++ {
		addPerson(t, leader, fmt.Sprintf("b-%d", i), i%80)
	}
	if w := do(leader, "POST", "/admin/checkpoint", "{}"); w.Code != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", w.Code, w.Body)
	}
	for i := 0; i < 500; i++ {
		addPerson(t, leader, fmt.Sprintf("b2-%d", i), i%80)
	}

	// ---- follower process two: resume from local store, converge ----
	rep2 := startReplica(t, ts.URL, replicaDir)
	installDegree(t, rep2.srv)
	waitReplicaCaughtUp(t, rep2, st)

	// Resumed, not re-bootstrapped: the position came from the local
	// store, so no snapshot fetch happened in this process life.
	stats := rep2.fw.Stats()
	if stats.Bootstraps != 0 {
		t.Fatalf("restart re-bootstrapped %d times, want 0", stats.Bootstraps)
	}
	if stats.RecordsApplied == 0 {
		t.Fatal("restarted follower applied no records")
	}

	// Lag went nonzero under load and settles to exactly zero once
	// caught up against a quiescent leader.
	if maxLag == 0 {
		t.Fatal("lag gauge never went nonzero during catch-up")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		lag, ok := lagGauge(rep2.srv)
		if ok && lag == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lag gauge stuck at %d (present=%v), want 0", lag, ok)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Bit-identical convergence: canonical snapshot encodings match.
	if !bytes.Equal(snapshotSig(t, st.Graph()), snapshotSig(t, rep2.fw.Graph())) {
		t.Fatal("follower snapshot signature diverged from leader")
	}
	wantV := seed + phaseA + phaseB + 500
	if got := rep2.fw.Graph().NumVertices(); got != wantV {
		t.Fatalf("follower has %d vertices, want %d", got, wantV)
	}

	// Crossing the phase-B checkpoint left a rotation span in the
	// follower's trace ring.
	if traces := do(rep2.srv, "GET", "/debug/traces", "").Body.String(); !strings.Contains(traces, "replication.rotate") {
		t.Fatalf("follower traces missing replication.rotate:\n%s", traces)
	}

	// Replication counters are exported on the follower's /metrics.
	mbody := do(rep2.srv, "GET", "/metrics", "").Body.String()
	for _, m := range []string{
		"gsqld_replication_records_applied_total",
		"gsqld_replication_bytes_total",
		"gsqld_replication_bootstraps_total 0",
		"gsqld_replication_lag_records 0",
	} {
		if !strings.Contains(mbody, m) {
			t.Fatalf("follower metrics missing %q:\n%s", m, mbody)
		}
	}

	// Reads still serve the converged graph.
	if w := do(rep2.srv, "POST", "/queries/Degree/run", "{}"); w.Code != http.StatusOK {
		t.Fatalf("follower read after convergence: %d %s", w.Code, w.Body)
	}

	rep2.stop(t)
	_ = leader.Shutdown(context.Background())
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}
