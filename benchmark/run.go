package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"gsqlgo/internal/ldbc"
)

// env is one booted pair plus what is needed to drive it.
type env struct {
	pair *pair
	http *http.Client
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: clients},
	}
}

// send posts one request and returns the status and body.
func (e *env) send(base, path string, body []byte, contentType, traceID string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", contentType)
	if traceID != "" {
		req.Header.Set("X-Trace-Id", traceID)
	}
	resp, err := e.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(resp.Body)
	return resp.StatusCode, rb, err
}

// do sends op o to the node it addresses. A transport error, a timeout
// and a non-2xx all come back as an error.
func (e *env) do(o op, traceID string) ([]byte, error) {
	base := e.pair.leader.url
	if o.follower {
		base = e.pair.follower.url
	}
	status, body, err := e.send(base, o.path, o.body, "application/json", traceID)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.path, err)
	}
	if status != http.StatusOK && status != http.StatusCreated {
		return body, fmt.Errorf("%s: %d %s", o.path, status, bytes.TrimSpace(body))
	}
	return body, nil
}

// recorder is one worker's private tally, merged after the window.
type recorder struct {
	units     durs            // latency of each unit a client waited for
	class     map[string]durs // latency by op class
	service   time.Duration   // read time from send to reply, for client_overhead_ms
	reads     int
	attempted int
	failed    int
	firstErr  error
	addedV    int // acknowledged vertex inserts
	addedE    int // acknowledged edge inserts
	lastAck   time.Time
}

func newRecorder() *recorder { return &recorder{class: map[string]durs{}} }

func (r *recorder) merge(o *recorder) {
	r.units = append(r.units, o.units...)
	for c, d := range o.class {
		r.class[c] = append(r.class[c], d...)
	}
	r.service += o.service
	r.reads += o.reads
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
	r.addedV += o.addedV
	r.addedE += o.addedE
	if o.lastAck.After(r.lastAck) {
		r.lastAck = o.lastAck
	}
}

// issue sends one op and records its outcome. due is when the op was
// meant to be sent: latency counts from there, so time spent waiting
// behind a stalled request is charged to the ops that waited.
func (e *env) issue(o op, due time.Time, rec *recorder) bool {
	sent := time.Now()
	_, err := e.do(o, "")
	done := time.Now()
	rec.attempted++
	if err != nil {
		// A failed op has no latency: it misses every limit.
		rec.failed++
		if rec.firstErr == nil {
			rec.firstErr = err
		}
		return false
	}
	rec.class[o.class] = append(rec.class[o.class], done.Sub(due))
	switch {
	case isQuery(o.class):
		rec.service += done.Sub(sent)
		rec.reads++
	case o.class == classWrite:
		rec.lastAck = done
		switch o.mut.Op {
		case ldbc.OpAddVertex:
			rec.addedV++
		case ldbc.OpAddEdge:
			rec.addedE++
		}
	}
	return true
}

// unit runs the ops [first, first+s.unit) as one thing a client waits
// for and records its latency when all of them succeeded.
func (e *env) unit(s stream, first uint64, due time.Time, rec *recorder) {
	ok := true
	at := due
	for k := 0; k < s.unit; k++ {
		if !e.issue(s.at(first+uint64(k)), at, rec) {
			ok = false
		}
		at = time.Now() // only a unit's first op can have been due earlier
	}
	if ok {
		rec.units = append(rec.units, time.Since(due))
	}
}

// workers runs work on n goroutines, each with a recorder of its own
// (no shared state on the request path), and returns the merged tally
// once all have returned.
func workers(n int, work func(rec *recorder)) *recorder {
	recs := make([]*recorder, n)
	var wg sync.WaitGroup
	for w := range recs {
		recs[w] = newRecorder()
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(recs[w])
		}()
	}
	wg.Wait()
	total := newRecorder()
	for _, r := range recs {
		total.merge(r)
	}
	return total
}

// closedLoop runs n clients for d: each sends its next unit when the
// previous one returned. A unit in flight at the deadline completes and
// counts, so the elapsed time is measured, not assumed.
func (e *env) closedLoop(s stream, n int, d time.Duration) (*recorder, time.Duration) {
	var next atomic.Uint64
	start := time.Now()
	deadline := start.Add(d)
	total := workers(n, func(rec *recorder) {
		for time.Now().Before(deadline) {
			u := next.Add(1) - 1
			e.unit(s, u*uint64(s.unit), time.Now(), rec)
		}
	})
	return total, time.Since(start)
}

// pacing is how late the open-loop generator ran.
type pacing struct {
	scheduled int
	late      int
	maxLate   time.Duration
}

// openLoop offers count units at rate per second regardless of how the
// pair keeps up. A pacer emits unit i at start + i/rate into a buffer
// that holds the whole run, so it never waits for a worker; n workers
// send, and latency counts from the due time. load.Run's open loop does
// the same but does not report how late the pacer itself ran.
func (e *env) openLoop(s stream, n int, rate float64, count int) (*recorder, time.Duration, pacing) {
	type arrival struct {
		i   uint64
		due time.Time
	}
	arrivals := make(chan arrival, count) // the whole run: the pacer must never block
	interval := time.Duration(float64(time.Second) / rate)
	pc := pacing{scheduled: count}
	start := time.Now()
	paced := make(chan struct{}) // closed when the pacer has emitted everything
	go func() {
		defer close(paced)
		defer close(arrivals)
		for i := 0; i < count; i++ {
			due := start.Add(time.Duration(i) * interval)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			if lag := time.Since(due); lag > 0 {
				if lag > interval {
					pc.late++
				}
				if lag > pc.maxLate {
					pc.maxLate = lag
				}
			}
			arrivals <- arrival{uint64(i), due}
		}
	}()
	total := workers(n, func(rec *recorder) {
		for a := range arrivals {
			e.unit(s, a.i*uint64(s.unit), a.due, rec)
		}
	})
	<-paced
	return total, time.Since(start), pc
}

// clientsOf is how many connections drive a workload.
func clientsOf(workload string) int {
	if workload == "analytic" {
		return 1 // an analyst waits for each reply, and a round's requests are ordered
	}
	return clients
}

// setUp boots a fresh pair, installs every query on both nodes, waits
// until the follower holds the leader's position and sends the warm-up
// requests. The returned duration is setup_s; the recorder holds what
// the warm-up was acknowledged.
func setUp(j *janitor, bin, workload string, warm []op) (*env, time.Duration, *recorder, error) {
	start := time.Now()
	hc := newHTTPClient()
	p, err := startPair(j, bin, hc)
	if err != nil {
		return nil, 0, nil, err
	}
	e := &env{pair: p, http: hc}
	_, srcs := sources()
	for _, n := range []*node{p.leader, p.follower} {
		for _, src := range srcs {
			status, body, err := e.send(n.url, "/queries", []byte(src), "text/plain", "")
			if err != nil {
				return nil, 0, nil, fmt.Errorf("install on %s: %w", n.url, err)
			}
			if status != http.StatusCreated {
				return nil, 0, nil, fmt.Errorf("install on %s: %d %s", n.url, status, body)
			}
		}
	}
	if _, err := p.waitCaughtUp(context.Background()); err != nil {
		return nil, 0, nil, err
	}
	var next atomic.Int64
	rec := workers(clientsOf(workload), func(rec *recorder) {
		for i := next.Add(1) - 1; int(i) < len(warm); i = next.Add(1) - 1 {
			e.issue(warm[i], time.Now(), rec)
		}
	})
	if rec.failed > 0 {
		return nil, 0, nil, fmt.Errorf("warm-up: %d of %d requests failed: %w", rec.failed, rec.attempted, rec.firstErr)
	}
	return e, time.Since(start), rec, nil
}
