package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"time"

	"gsqlgo/internal/core"
	"gsqlgo/internal/graph"
	"gsqlgo/internal/ldbc"
	"gsqlgo/internal/server"
	"gsqlgo/internal/storage"
)

var quietLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// inProc is a server.Server in this process, driven through ServeHTTP
// with the same request bytes the children get. The output checks use
// one over a bare graph as the reference; the traced run uses one over
// a durable store as rung 1.
type inProc struct {
	srv *server.Server
}

// newEngine returns an engine over g with every query installed.
func newEngine(g *graph.Graph) (*core.Engine, error) {
	eng := core.New(g, core.Options{})
	_, srcs := sources()
	for _, src := range srcs {
		if err := eng.Install(src); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// newInProc wraps g (and store, when durable) in a server.
func newInProc(g *graph.Graph, store *storage.Store) (*inProc, error) {
	eng, err := newEngine(g)
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{Engine: eng, Store: store, Logger: quietLog})
	return &inProc{srv: srv}, nil
}

func (p *inProc) request(o op) *http.Request {
	req := httptest.NewRequest(http.MethodPost, o.path, bytes.NewReader(o.body))
	req.Header.Set("Content-Type", "application/json")
	return req
}

// serve runs o through ServeHTTP and returns the body of a 2xx reply.
func (p *inProc) serve(o op) ([]byte, error) {
	rec := httptest.NewRecorder()
	p.srv.ServeHTTP(rec, p.request(o))
	if rec.Code != http.StatusOK && rec.Code != http.StatusCreated {
		return nil, fmt.Errorf("in-process %s: %d %s", o.path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return rec.Body.Bytes(), nil
}

// answer is the part of a run response that is the query's result; the
// rest (request id, elapsed time, cache counters) differs per request.
func answer(body []byte) (string, error) {
	var r struct {
		Tables   json.RawMessage `json:"tables"`
		Printed  json.RawMessage `json:"printed"`
		Returned json.RawMessage `json:"returned"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return "", err
	}
	return fmt.Sprintf("tables=%s printed=%s returned=%s", r.Tables, r.Printed, r.Returned), nil
}

// sameAnswer requires two run responses to carry byte-identical answers.
func sameAnswer(o op, aName string, a []byte, bName string, b []byte) error {
	aa, err := answer(a)
	if err != nil {
		return err
	}
	ba, err := answer(b)
	if err != nil {
		return err
	}
	if aa != ba {
		return fmt.Errorf("%s %s: %s and %s differ\n%.300s\n%.300s", o.query, o.body, aName, bName, aa, ba)
	}
	return nil
}

// checkAgainstReference replays the first n ops of s on the pair and on
// an in-process engine over ldbc.Generate(SF 0.3, seed 7) and requires
// every query's answer to match byte for byte. Writes among them are
// applied to both and tallied in rec. prior is what the pair was sent
// before (the warm-up); its writes are applied to the reference first.
func checkAgainstReference(e *env, prior []op, s stream, n int, rec *recorder) error {
	if n == 0 {
		return nil
	}
	ref, err := newInProc(ldbc.Generate(snbConfig()), nil)
	if err != nil {
		return err
	}
	for _, o := range prior {
		if o.class == classWrite {
			if _, err := ref.serve(o); err != nil {
				return err
			}
		}
	}
	for i := 0; i < n; i++ {
		o := s.at(uint64(i))
		want, err := ref.serve(o)
		if err != nil {
			return err
		}
		if !isQuery(o.class) {
			if !e.issue(o, time.Now(), rec) {
				return fmt.Errorf("check op %d: %w", i, rec.firstErr)
			}
			continue
		}
		rec.attempted++
		got, err := e.do(o, "")
		if err != nil {
			rec.failed++
			return fmt.Errorf("check op %d: %w", i, err)
		}
		if err := sameAnswer(o, "the pair", got, "the in-process engine", want); err != nil {
			rec.failed++ // a wrong answer is a failed request
			return fmt.Errorf("check op %d: %w", i, err)
		}
	}
	return nil
}

// checkAgreement requires leader and follower to return identical
// answers to a fixed query set: every IC query for five Persons.
func checkAgreement(e *env) error {
	s, err := newStream("ic-read", graphSeed, "agree")
	if err != nil {
		return err
	}
	for i := uint64(0); i < 25; i++ {
		o := s.at(i)
		lb, err := e.do(o, "")
		if err != nil {
			return fmt.Errorf("agreement, leader: %w", err)
		}
		o.follower = true
		fb, err := e.do(o, "")
		if err != nil {
			return fmt.Errorf("agreement, follower: %w", err)
		}
		if err := sameAnswer(o, "leader", lb, "follower", fb); err != nil {
			return fmt.Errorf("agreement: %w", err)
		}
	}
	return nil
}

// durability is what the post-run checks measured on the way.
type durability struct {
	lagAtEnd int64         // records the follower reported itself behind when the window closed
	catchUp  time.Duration // last acknowledged write until follower position == leader's
	recover  time.Duration // storage.Open of the killed leader's directory
}

// checkDurable runs after every window: the follower must reach the
// leader's position and agree with it; then the leader is killed with
// SIGKILL and its directory must recover to exactly the seed graph plus
// the acknowledged inserts. This is crash durability, not power-loss
// durability: the operating system's cache survives a killed process,
// so bytes written but never fsynced would still be read back here.
func checkDurable(e *env, rec *recorder) (durability, error) {
	var d durability
	ctx := context.Background()
	_, d.lagAtEnd = e.pair.caughtUp(ctx)
	if _, err := e.pair.waitCaughtUp(ctx); err != nil {
		return d, err
	}
	if !rec.lastAck.IsZero() {
		d.catchUp = time.Since(rec.lastAck)
	}
	if err := checkAgreement(e); err != nil {
		return d, err
	}
	dir := e.pair.leader.dir
	e.pair.leader.kill()
	seed := ldbc.Generate(snbConfig())
	start := time.Now()
	st, err := storage.Open(dir, storage.Options{})
	if err != nil {
		return d, fmt.Errorf("recovering the killed leader's store: %w", err)
	}
	d.recover = time.Since(start)
	defer st.Close()
	g := st.Graph()
	// A request that failed may or may not have been applied; one that
	// was acknowledged must be there.
	wantV, wantE := seed.NumVertices()+rec.addedV, seed.NumEdges()+rec.addedE
	if g.NumVertices() < wantV || g.NumVertices() > wantV+rec.failed ||
		g.NumEdges() < wantE || g.NumEdges() > wantE+rec.failed {
		return d, fmt.Errorf("after kill -9 the leader recovered %d vertices and %d edges; seed + acknowledged inserts is %d and %d",
			g.NumVertices(), g.NumEdges(), wantV, wantE)
	}
	return d, nil
}
