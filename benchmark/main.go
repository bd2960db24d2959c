// Command benchmark is the one yardstick for gsqld: it boots a leader
// and a follower from the commit under test, drives them with four
// workloads from this one process, checks the answers, and prints every
// end-to-end and per-layer metric by name. README.md explains what each
// number means and which layer should move it. Run it from the
// repository root through benchmark/run.sh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	setups   int // set-ups per timed run: setupRuns, fewer only in the test
	traceOps int // ops the traced run climbs the rungs with: ladderOps, fewer only in the test
}

func main() { os.Exit(realMain()) }

func realMain() int {
	if err := loadDefinitions(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	o := options{setups: setupRuns, traceOps: ladderOps}
	var traceFlag string
	var repeat int
	var checkAA bool
	flag.StringVar(&o.workload, "workload", "", "workload to run: ic-read, ic-mixed, write-only, analytic (empty: all four, each timed and then traced)")
	flag.Int64Var(&o.seed, "seed", 7, "seed of the op stream (the graph's seed is gsqld's fixed 7)")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "measured window per workload, in seconds (default: BENCHMARK.json run_seconds)")
	flag.StringVar(&traceFlag, "trace", "0", "1: traced run, prints the per-layer metrics and writes "+buildDir+"/trace-<workload>.json; 0: timed run, prints the end-to-end metrics")
	flag.IntVar(&repeat, "repeat", 0, "A/A: run each workload N times on seeds seed..seed+N-1 and print each end-to-end metric's median, quartiles and spread")
	flag.BoolVar(&checkAA, "check-aa", false, "A/A: run two such sets (-repeat, default 5) and fail when a metric's medians differ by more than its bound")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	switch traceFlag {
	case "0", "1":
		o.trace = traceFlag == "1"
	default:
		fmt.Fprintf(os.Stderr, "-trace takes 0 or 1, got %q\n", traceFlag)
		return 2
	}
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "-seconds must be at least 1")
		return 2
	}
	names := []string{o.workload}
	if o.workload == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	} else if !slices.ContainsFunc(workloads, func(w workloadDef) bool { return w.Name == o.workload }) {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", o.workload)
		return 2
	}

	j := &janitor{}
	defer j.run()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		j.run()
		os.Exit(130)
	}()

	bin, buildTime, err := buildServer()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("topology: leader -builtin snb:%v -fsync -wal-retain 8 GOMAXPROCS=%s, follower GOMAXPROCS=%s, loopback, %d client connections, graph seed %d\n",
		snbSF, leaderProcs, followProcs, clients, graphSeed)
	fmt.Printf("build_s %.3f s (go build gsqld; outside setup_s)\n", buildTime.Seconds())

	if checkAA || repeat > 0 {
		if repeat == 0 {
			repeat = 5
		}
		return runAA(j, bin, o, names, repeat, checkAA)
	}

	code := 0
	for _, name := range names {
		o.workload = name
		modes := []bool{o.trace}
		if len(names) > 1 {
			modes = []bool{false, true}
		}
		for _, traced := range modes {
			o.trace = traced
			res := runWorkload(j, bin, o)
			res.print(os.Stdout)
			if !res.Correct {
				code = 1
			}
			if res.metrics() == nil {
				// Nothing was measured: no result line.
				return 1
			}
			fmt.Println(res.jsonLine())
		}
	}
	return code
}

// result is one run of one workload.
type result struct {
	opts      options
	Correct   bool
	Attempted int
	Failed    int
	EndToEnd  map[string]float64 // every run
	Layers    map[string]float64 // traced runs only
	samples   map[string]int     // sample count behind a metric, where it has one
	notes     map[string]string  // remark printed beside a metric
	extra     []string           // lines for the human-readable report only
	err       error
}

// metrics returns what the run reports to the driver: the end-to-end
// metrics of a timed run, the per-layer metrics of a traced one.
func (r *result) metrics() map[string]float64 {
	if r.opts.trace {
		return r.Layers
	}
	return r.EndToEnd
}

// jsonLine renders the result as the driver reads it.
func (r *result) jsonLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for name, v := range r.metrics() {
		out.Metrics[name] = mv{v, unitOf(name)}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // a non-finite value: a bug in the arithmetic above
	}
	return string(b)
}

func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.Name == name {
			return m.Unit
		}
	}
	for _, m := range perLayer {
		if m.Name == name {
			return m.Unit
		}
	}
	panic("metric without a definition: " + name)
}

// runWorkload does one run: set-ups, output check against the reference
// engine, (traced: the rung ladder,) the measured window, the
// durability checks, teardown.
func runWorkload(j *janitor, bin string, o options) *result {
	res := &result{opts: o, samples: map[string]int{}, notes: map[string]string{}}
	fail := func(err error) *result {
		res.err = err
		res.Correct = false
		return res
	}

	// setup_s is the median of several set-ups: one is too noisy to hold
	// a bound. All but the last are torn down at once.
	warm, err := warmOps(o.workload, o.seed)
	if err != nil {
		return fail(err)
	}
	var setups []float64
	var e *env
	var rec *recorder // everything sent to the surviving pair, warm-up included
	n := o.setups
	if o.trace {
		n = 1
	}
	for k := 0; k < n; k++ {
		if e != nil {
			e.pair.stop()
		}
		var d time.Duration
		if e, d, rec, err = setUp(j, bin, o.workload, warm); err != nil {
			return fail(fmt.Errorf("set-up: %w", err))
		}
		setups = append(setups, d.Seconds())
	}
	defer e.pair.stop()

	// Output check on the fresh pair: the first 50 reads of ic-read, one
	// round of analytic. The write streams are checked after the window,
	// by checkDurable.
	checkOps := map[string]int{"ic-read": 50, "analytic": 4}[o.workload]
	check, err := newStream(o.workload, o.seed, "check")
	if err != nil {
		return fail(err)
	}
	if err := checkAgainstReference(e, warm, check, checkOps, rec); err != nil {
		res.Attempted, res.Failed = rec.attempted, rec.failed
		return fail(err)
	}

	var lad *ladder
	if o.trace {
		if lad, err = newLadder(j, e); err != nil {
			return fail(err)
		}
		for i := 0; i < checkOps; i++ {
			warm = append(warm, check.at(uint64(i)))
		}
		if err := lad.prime(warm); err != nil {
			return fail(err)
		}
		ts, err := newStream(o.workload, o.seed, "trace")
		if err != nil {
			return fail(err)
		}
		if err := lad.climb(ts, o.traceOps, 6*time.Second); err != nil {
			return fail(err)
		}
		rec.merge(lad.rec)
		if err := lad.writeTrace(o.workload); err != nil {
			return fail(err)
		}
	}

	s, err := newStream(o.workload, o.seed, "win")
	if err != nil {
		return fail(err)
	}
	var before counters
	var cpu0 [2]procStat
	if o.trace {
		if before, err = e.scrapePair(); err != nil {
			return fail(err)
		}
		cpu0 = [2]procStat{e.pair.leader.procStat(), e.pair.follower.procStat()}
	}
	var win *recorder
	var elapsed time.Duration
	var pc pacing
	window := time.Duration(o.seconds) * time.Second
	switch o.workload {
	case "ic-mixed":
		// One block of the mix per second: 160 reads, 39 writes, 1 checkpoint.
		win, elapsed, pc = e.openLoop(s, clients, openRate, openRate*o.seconds)
	default:
		win, elapsed = e.closedLoop(s, clientsOf(o.workload), window)
	}
	var delta counters
	var cpu1 [2]procStat
	if o.trace {
		after, err := e.scrapePair()
		if err != nil {
			return fail(err)
		}
		delta = after.minus(before)
		cpu1 = [2]procStat{e.pair.leader.procStat(), e.pair.follower.procStat()}
	}
	rec.merge(win)
	res.Attempted, res.Failed = rec.attempted, rec.failed

	dur, err := checkDurable(e, rec)
	if err != nil {
		return fail(err)
	}
	if len(win.units) == 0 {
		return fail(fmt.Errorf("no op completed in the window: %v", win.firstErr))
	}
	res.Correct = true
	if pc.scheduled > 0 && float64(pc.late)/float64(pc.scheduled) > maxLate {
		// The answers are right, but the latencies describe a burstier
		// arrival process than the workload's: not a run to compare.
		res.Correct = false
		res.err = fmt.Errorf("open loop invalid: the pacer emitted %d of %d arrivals after the next one was due (limit %.0f%%)",
			pc.late, pc.scheduled, 100*maxLate)
	}
	if win.failed > 0 && res.err == nil {
		// Counted, reported, and the run goes on: failed_share is the
		// driver's failed / attempted.
		res.err = fmt.Errorf("%d of %d ops failed, first: %w", win.failed, win.attempted, win.firstErr)
	}

	// Of this run; a traced run prints them but reports the layers.
	e2e := map[string]float64{
		"setup_s": median(setups),
		"ops_s":   float64(len(win.units)) / elapsed.Seconds(),
	}
	res.samples["setup_s"], res.samples["ops_s"] = len(setups), len(win.units)
	for _, m := range classMetrics {
		d := win.units // not gated on this workload: all its ops (defs.go)
		if slices.Contains(gated[o.workload], m.name) {
			d = win.class[m.class]
		} else {
			res.notes[m.name] = "= all ops: not gated on " + o.workload
		}
		e2e[m.name], res.samples[m.name] = d.q(m.q, time.Millisecond), len(d)
	}
	res.extra = append(res.extra,
		fmt.Sprintf("window %.3f s, %d ops completed, %d requests attempted, %d failed; all ops p50 %.4f ms  p95 %.4f ms  p99 %.4f ms (p99 is printed, not gated)",
			elapsed.Seconds(), len(win.units), win.attempted, win.failed,
			win.units.q(0.5, time.Millisecond), win.units.q(0.95, time.Millisecond), win.units.q(0.99, time.Millisecond)),
		fmt.Sprintf("failed_share %.5f share (%d failed / %d attempted, warm-up and checks included)",
			ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted))
	for _, c := range []string{classRead, classWrite, classCheckpoint, classPageRank, classQacc, classPaths} {
		if d := win.class[c]; len(d) > 0 {
			res.extra = append(res.extra, fmt.Sprintf("  %-10s n=%-6d p50 %.4f ms  p95 %.4f ms  p99 %.4f ms",
				c, len(d), d.q(0.5, time.Millisecond), d.q(0.95, time.Millisecond), d.q(0.99, time.Millisecond)))
		}
	}
	if pc.scheduled > 0 {
		res.extra = append(res.extra, fmt.Sprintf("open loop: %d arrivals at %d/s, %d emitted after the next was due, latest by %.3f ms",
			pc.scheduled, openRate, pc.late, float64(pc.maxLate)/float64(time.Millisecond)))
	}
	res.extra = append(res.extra, fmt.Sprintf(
		"checks passed: %d answers equal the in-process engine's; follower caught up and agrees with the leader on 25 queries; after kill -9 the leader's store recovered seed + %d vertices + %d edges (crash durability: the OS cache survives a kill)",
		checkOps, rec.addedV, rec.addedE))

	res.EndToEnd = e2e
	if o.trace {
		if res.Layers, err = layerMetrics(lad, win, pc, delta, dur, cpu0, cpu1, res); err != nil {
			return fail(err)
		}
	}
	if err := res.matchesDefinitions(); err != nil {
		res.EndToEnd, res.Layers = nil, nil
		return fail(err)
	}
	return res
}

// matchesDefinitions requires the run to have measured exactly the
// metrics BENCHMARK.json names, and no end-to-end metric to be 0.
func (r *result) matchesDefinitions() error {
	check := func(kind string, defs []metricDef, got map[string]float64) error {
		for _, d := range defs {
			if _, ok := got[d.Name]; !ok {
				return fmt.Errorf("BENCHMARK.json names %s metric %s, which the run did not measure", kind, d.Name)
			}
		}
		if len(got) != len(defs) {
			return fmt.Errorf("the run measured %d %s metrics, BENCHMARK.json names %d", len(got), kind, len(defs))
		}
		return nil
	}
	if err := check("end_to_end", endToEnd, r.EndToEnd); err != nil {
		return err
	}
	for name, v := range r.EndToEnd {
		if v <= 0 {
			return fmt.Errorf("end-to-end metric %s is %v", name, v)
		}
	}
	if r.opts.trace {
		return check("per_layer", perLayer, r.Layers)
	}
	return nil
}
