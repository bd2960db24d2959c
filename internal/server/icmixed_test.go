package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gsqlgo/internal/core"
	"gsqlgo/internal/graph"
	"gsqlgo/internal/ldbc"
	"gsqlgo/internal/load"
	"gsqlgo/internal/storage"
)

// TestICMixedLeaderFollower runs the benchmark's ic-mixed shape under
// the race detector: a durable leader and a bound replication follower
// over a generated LDBC graph, both with the IC family (two hops)
// installed; one reader each sends the load workload's reads over
// HTTP, one writer sends the first mutations of its write stream to the
// leader, and a checkpointer rotates the WAL throughout. At quiescence
// the follower's snapshot bytes must equal the leader's, and a sample
// of IC answers must agree across the leader, the follower and a fresh
// engine over the generated graph plus the acknowledged mutations.
func TestICMixedLeaderFollower(t *testing.T) {
	const (
		writes  = 200
		answers = 25
	)
	cfg := ldbc.Config{SF: 0.1, Seed: 7}
	wl, err := load.NewWorkload(cfg, 11, 2, nil, "mixed")
	if err != nil {
		t.Fatal(err)
	}
	st, err := storage.Open(t.TempDir(), storage.Options{
		Init: func() (*graph.Graph, error) { return ldbc.Generate(cfg), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	leader := New(Config{Engine: core.New(st.Graph(), core.Options{Workers: 2}), Store: st})
	ts := httptest.NewServer(leader)
	defer ts.Close()
	rep := startReplica(t, ts.URL, t.TempDir())
	fts := httptest.NewServer(rep.srv)
	defer fts.Close()
	for name, src := range wl.InstallSources() {
		for _, s := range []*Server{leader, rep.srv} {
			if w := do(s, "POST", "/queries", src); w.Code != http.StatusCreated {
				t.Fatalf("install %s: %d %s", name, w.Code, w.Body)
			}
		}
	}

	post := func(url string, body any) (int, []byte, error) {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		resp, err := http.Post(url, "application/json", bytes.NewReader(data))
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		return resp.StatusCode, out, err
	}
	read := func(base string, i uint64) ([]byte, error) {
		name, params := wl.Read(i)
		code, body, err := post(base+"/queries/"+name+"/run", map[string]any{"params": params})
		if err != nil {
			return nil, err
		}
		if code != http.StatusOK {
			return nil, fmt.Errorf("read %d (%s) on %s: %d %s", i, name, base, code, body)
		}
		return body, nil
	}

	writerDone := make(chan struct{})
	errs := make(chan error, 4)
	var reads [2]atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: the write stream, in order, to the leader
		defer wg.Done()
		defer close(writerDone)
		for i := uint64(0); i < writes; i++ {
			path, body := mutationRequest(wl.Write(i))
			code, out, err := post(ts.URL+path, body)
			if err == nil && code != http.StatusCreated && code != http.StatusOK {
				err = fmt.Errorf("write %d: %d %s", i, code, out)
			}
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	for r, base := range []string{ts.URL, fts.URL} {
		wg.Add(1)
		go func() { // reader: the read stream until the writer is done
			defer wg.Done()
			for i := uint64(0); ; i++ {
				select {
				case <-writerDone:
					return
				default:
				}
				if _, err := read(base, i); err != nil {
					errs <- err
					return
				}
				reads[r].Add(1)
			}
		}()
	}
	wg.Add(1)
	go func() { // checkpointer: WAL rotations race the readers and the writer
		defer wg.Done()
		for {
			select {
			case <-writerDone:
				return
			case <-time.After(20 * time.Millisecond):
			}
			if w := do(leader, "POST", "/admin/checkpoint", "{}"); w.Code != http.StatusOK {
				errs <- fmt.Errorf("checkpoint: %d %s", w.Code, w.Body)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if reads[0].Load() == 0 || reads[1].Load() == 0 {
		t.Fatalf("reads during the writes: leader %d, follower %d; want some on both", reads[0].Load(), reads[1].Load())
	}
	t.Logf("reads during the writes: leader %d, follower %d", reads[0].Load(), reads[1].Load())

	waitReplicaCaughtUp(t, rep, st)
	if !bytes.Equal(snapshotSig(t, st.Graph()), snapshotSig(t, rep.fw.Graph())) {
		t.Fatal("follower snapshot bytes differ from the leader's")
	}

	// The reference: the generated graph plus every acknowledged write,
	// applied in process in stream order.
	g := ldbc.Generate(cfg)
	for i := uint64(0); i < writes; i++ {
		if err := ldbc.Apply(g, wl.Write(i)); err != nil {
			t.Fatalf("reference write %d: %v", i, err)
		}
	}
	ref := New(Config{Engine: core.New(g, core.Options{Workers: 2})})
	rts := httptest.NewServer(ref)
	defer rts.Close()
	for name, src := range wl.InstallSources() {
		if w := do(ref, "POST", "/queries", src); w.Code != http.StatusCreated {
			t.Fatalf("reference install %s: %d %s", name, w.Code, w.Body)
		}
	}
	for i := uint64(1000); i < 1000+answers; i++ {
		var got [3]string
		for j, base := range []string{ts.URL, fts.URL, rts.URL} {
			body, err := read(base, i)
			if err != nil {
				t.Fatal(err)
			}
			got[j] = runAnswer(t, body)
		}
		if got[0] != got[2] || got[1] != got[2] {
			name, params := wl.Read(i)
			t.Fatalf("%s %v: leader %s\nfollower %s\nreference %s", name, params, got[0], got[1], got[2])
		}
	}

	rep.stop(t)
	_ = leader.Shutdown(context.Background())
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// mutationRequest maps a write-stream record onto the gsqld route and
// body that apply it.
func mutationRequest(m ldbc.Mutation) (string, any) {
	switch m.Op {
	case ldbc.OpAddVertex:
		return "/graph/vertices", map[string]any{"type": m.Type, "key": m.Key, "attrs": m.Attrs}
	case ldbc.OpAddEdge:
		return "/graph/edges", map[string]any{
			"type":  m.Type,
			"src":   map[string]string{"type": m.SrcType, "key": m.SrcKey},
			"dst":   map[string]string{"type": m.DstType, "key": m.DstKey},
			"attrs": m.Attrs,
		}
	}
	return "/graph/vertices/attrs", map[string]any{"type": m.Type, "key": m.Key, "attrs": m.Attrs}
}

// runAnswer re-encodes the answer part of a run response — its tables,
// printed output and return value — without the per-run timing, ids
// and counters, which legitimately differ between servers.
func runAnswer(t *testing.T, body []byte) string {
	t.Helper()
	var r runResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(struct {
		Tables   map[string]*tableJSON
		Printed  []*tableJSON
		Returned *tableJSON
	}{r.Tables, r.Printed, r.Returned})
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
