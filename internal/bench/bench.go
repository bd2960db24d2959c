// Package bench regenerates the paper's tables and figures:
//
//   - Table 1 (plus the accompanying TigerGraph measurement): diamond
//     chain path counting under all-shortest-paths counting vs
//     non-repeated-edge enumeration vs materializing all-shortest-paths
//     (Section 7.1).
//   - The Section 7.1 large-scale table: SNB IC queries at growing
//     scale factors and KNOWS hop counts under both semantics.
//   - The Appendix B table: accumulator-style (Qacc) vs
//     GROUPING-SET-style (Qgs) multi-aggregation with per-scale-factor
//     speedups.
//   - Supporting ablations: SDMC polynomial scaling and the Appendix A
//     multiplicity shortcut.
//
// Absolute milliseconds differ from the paper (different hardware and
// substrate); the shapes — who wins, growth rates, crossovers — are
// what reproduce.
package bench

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"gsqlgo/internal/core"
	"gsqlgo/internal/darpe"
	"gsqlgo/internal/graph"
	"gsqlgo/internal/ldbc"
	"gsqlgo/internal/match"
	"gsqlgo/internal/value"
)

// fmtDur renders a duration like the paper's tables (ms below 10 s,
// m/s above).
func fmtDur(d time.Duration) string {
	switch {
	case d < 10*time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	case d < time.Minute:
		return fmt.Sprintf("%.2fs", d.Seconds())
	default:
		return fmt.Sprintf("%dm%02ds", int(d.Minutes()), int(d.Seconds())%60)
	}
}

// Table1Config bounds the Table 1 regeneration.
type Table1Config struct {
	// MaxN is the largest diamond count (the paper used 30).
	MaxN int
	// CellTimeout abandons a column once one of its cells exceeds it
	// (the paper used 10 minutes; benches default far lower).
	CellTimeout time.Duration
}

// Table1 regenerates Table 1 (Section 7.1): for each n, the number of
// v0→vn paths and the evaluation time under (a) polynomial ASP
// counting — the TigerGraph strategy, all sub-10ms in the paper —
// (b) non-repeated-edge enumeration — Neo4j's default, doubling per
// +1 n — and (c) materializing ASP — Neo4j's allShortestPaths mode,
// growing even faster.
func Table1(w io.Writer, cfg Table1Config) error {
	if cfg.MaxN <= 0 {
		cfg.MaxN = 30
	}
	if cfg.CellTimeout <= 0 {
		cfg.CellTimeout = 10 * time.Minute
	}
	g := graph.BuildDiamondChain(cfg.MaxN)
	d := darpe.MustCompile("E>*")
	v0, _ := g.VertexByKey("V", "v0")

	fmt.Fprintf(w, "Table 1 — diamond chain Q_n (n diamonds, 2^n paths), cell timeout %s\n", cfg.CellTimeout)
	fmt.Fprintf(w, "%4s  %12s  %14s  %14s  %14s\n", "n", "path count", "ASP-count", "NRE-enum", "ASP-materialize")

	nreDead, matDead := false, false
	for n := 1; n <= cfg.MaxN; n++ {
		vn, _ := g.VertexByKey("V", fmt.Sprintf("v%d", n))

		start := time.Now()
		_, mult, ok, err := match.CountASPPair(g, d, v0, vn)
		aspTime := time.Since(start)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("bench: v%d unreachable", n)
		}

		nreCell, matCell := "-", "-"
		if !nreDead {
			start = time.Now()
			cnt, err := match.CountEnumPair(g, d, v0, vn, match.NonRepeatedEdge, match.EnumLimits{MaxSteps: 1 << 62})
			el := time.Since(start)
			if err != nil {
				nreCell = "err"
			} else {
				if cnt != mult {
					return fmt.Errorf("bench: NRE count %d != ASP count %d at n=%d", cnt, mult, n)
				}
				nreCell = fmtDur(el)
				if el > cfg.CellTimeout {
					nreDead = true
				}
			}
		}
		if !matDead {
			start = time.Now()
			_, cnt, err := match.CountASPMaterializedPair(g, d, v0, vn, match.EnumLimits{MaxSteps: 1 << 62})
			el := time.Since(start)
			if err != nil {
				matCell = "err"
			} else {
				if cnt != mult {
					return fmt.Errorf("bench: materialized count %d != ASP count %d at n=%d", cnt, mult, n)
				}
				matCell = fmtDur(el)
				if el > cfg.CellTimeout {
					matDead = true
				}
			}
		}
		fmt.Fprintf(w, "%4d  %12d  %14s  %14s  %14s\n", n, mult, fmtDur(aspTime), nreCell, matCell)
	}

	// The paper's companion measurement: the full GSQL Q_n through the
	// engine (WHERE-filtered over all sources) stays in milliseconds.
	e := core.New(g, core.Options{})
	if err := e.Install(qnSource); err != nil {
		return err
	}
	start := time.Now()
	res, err := e.Run("Qn", map[string]value.Value{
		"srcName": value.NewString("v0"),
		"tgtName": value.NewString(fmt.Sprintf("v%d", cfg.MaxN)),
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nFull GSQL Q_%d through the engine (all-shortest-paths): count=%s in %s\n",
		cfg.MaxN, res.Printed[0].Rows[0][1], fmtDur(time.Since(start)))
	return nil
}

const qnSource = `
CREATE QUERY Qn(string srcName, string tgtName) {
  SumAccum<int> @pathCount;
  R = SELECT t
      FROM V:s -(E>*)- V:t
      WHERE s.name == srcName AND t.name == tgtName
      ACCUM t.@pathCount += 1;
  PRINT R[R.name, R.@pathCount];
}
`

// SNBConfig bounds the Section 7.1 SNB regeneration.
type SNBConfig struct {
	// SFs are the scale factors (persons ≈ 1000·SF each).
	SFs []float64
	// Hops are the KNOWS repetition bounds (the paper used 2, 3, 4).
	Hops []int
	// Seed feeds the generator.
	Seed int64
	// MaxSteps bounds each enumeration cell; exceeding it prints "-"
	// (the paper's Neo4j timeouts).
	MaxSteps uint64
}

// SNBTable regenerates the Section 7.1 two-part table: the IC query
// family at each scale factor and hop count, timed under
// all-shortest-paths counting (the TigerGraph half) and
// non-repeated-edge enumeration (the Neo4j half).
func SNBTable(w io.Writer, cfg SNBConfig) error {
	if len(cfg.SFs) == 0 {
		cfg.SFs = []float64{0.3, 1, 3}
	}
	if len(cfg.Hops) == 0 {
		cfg.Hops = []int{2, 3, 4}
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 200_000_000
	}
	queries := []string{"ic3", "ic5", "ic6", "ic9", "ic11"}
	for _, part := range []struct {
		label string
		sem   match.Semantics
	}{
		{"all-shortest-paths (counting; TigerGraph's strategy)", match.AllShortestPaths},
		{"non-repeated-edge (enumeration; Neo4j's default)", match.NonRepeatedEdge},
	} {
		fmt.Fprintf(w, "\nSNB IC queries under %s\n", part.label)
		fmt.Fprintf(w, "%6s %5s", "SF", "hops")
		for _, q := range queries {
			fmt.Fprintf(w, " %12s", q)
		}
		fmt.Fprintln(w)
		for _, sf := range cfg.SFs {
			g := ldbc.Generate(ldbc.Config{SF: sf, Seed: cfg.Seed})
			p, _ := g.VertexByKey("Person", "person0")
			for _, h := range cfg.Hops {
				fmt.Fprintf(w, "%6.1f %5d", sf, h)
				for _, q := range queries {
					cell, err := runICCell(g, part.sem, q, h, p, cfg.MaxSteps)
					if err != nil {
						return err
					}
					fmt.Fprintf(w, " %12s", cell)
				}
				fmt.Fprintln(w)
			}
		}
	}
	return nil
}

func runICCell(g *graph.Graph, sem match.Semantics, short string, h int, p graph.VID, maxSteps uint64) (string, error) {
	e := core.New(g, core.Options{Semantics: sem, EnumLimits: match.EnumLimits{MaxSteps: maxSteps}})
	if err := e.Install(ldbc.ICQueries(h)[short]); err != nil {
		return "", err
	}
	args := icArgs(short, p)
	start := time.Now()
	_, err := e.Run(ldbc.ICName(short, h), args)
	if err != nil {
		// Budget exhaustion models the paper's timeouts.
		return "-", nil
	}
	return fmtDur(time.Since(start)), nil
}

func icArgs(short string, p graph.VID) map[string]value.Value {
	pv := value.NewVertex(int64(p))
	k := value.NewInt(20)
	switch short {
	case "ic3":
		return map[string]value.Value{"p": pv, "countryX": value.NewString("Country-1"), "countryY": value.NewString("Country-2"), "k": k}
	case "ic5":
		return map[string]value.Value{"p": pv, "minDate": graph.MustDatetime("2010-06-01"), "k": k}
	case "ic6":
		return map[string]value.Value{"p": pv, "tagName": value.NewString("Tag-3"), "k": k}
	case "ic9":
		return map[string]value.Value{"p": pv, "maxDate": graph.MustDatetime("2012-06-01"), "k": k}
	case "ic11":
		return map[string]value.Value{"p": pv, "countryName": value.NewString("Country-0"), "maxYear": value.NewInt(2010), "k": k}
	default:
		panic("unknown IC query " + short)
	}
}

// AppendixBConfig bounds the Appendix B regeneration.
type AppendixBConfig struct {
	// SFs are the scale factors to sweep (the paper used 1, 10, 100,
	// 1000 at 1 GB–1 TB; defaults here are laptop-scale).
	SFs []float64
	// Reps is the number of timed runs per query; the median is
	// reported (the paper used 5).
	Reps int
	// Seed feeds the generator.
	Seed int64
}

// AppendixB regenerates the Appendix B table: median running times of
// the GROUPING-SET-style Qgs and the accumulator-style Qacc per scale
// factor, and the speedup (the paper observed 2.48×–3.05×).
func AppendixB(w io.Writer, cfg AppendixBConfig) error {
	if len(cfg.SFs) == 0 {
		cfg.SFs = []float64{0.5, 1, 2}
	}
	if cfg.Reps <= 0 {
		cfg.Reps = 5
	}
	args := map[string]value.Value{
		"lo": graph.MustDatetime("2010-01-01"),
		"hi": graph.MustDatetime("2012-12-31"),
	}
	fmt.Fprintf(w, "Appendix B — accumulator vs GROUPING-SET multi-aggregation (median of %d runs)\n", cfg.Reps)
	fmt.Fprintf(w, "%12s %14s %14s %9s\n", "scale factor", "Qgs median", "Qacc median", "speedup")
	for _, sf := range cfg.SFs {
		g := ldbc.Generate(ldbc.Config{SF: sf, Seed: cfg.Seed})
		gsTime, err := medianRun(g, ldbc.QGS(), "Qgs", args, cfg.Reps)
		if err != nil {
			return err
		}
		accTime, err := medianRun(g, ldbc.QACC(), "Qacc", args, cfg.Reps)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%12.1f %14s %14s %8.3fx\n", sf, fmtDur(gsTime), fmtDur(accTime),
			float64(gsTime)/float64(accTime))
	}
	return nil
}

func medianRun(g *graph.Graph, src, name string, args map[string]value.Value, reps int) (time.Duration, error) {
	e := core.New(g, core.Options{})
	if err := e.Install(src); err != nil {
		return 0, err
	}
	times := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if _, err := e.Run(name, args); err != nil {
			return 0, err
		}
		times = append(times, time.Since(start))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2], nil
}

// SDMCScaling demonstrates Theorem 6.1's polynomial scaling: the
// single-source SDMC time on diamond chains of growing size, where the
// path count grows exponentially but counting time grows linearly.
func SDMCScaling(w io.Writer, sizes []int) error {
	if len(sizes) == 0 {
		sizes = []int{10, 20, 30, 40, 50, 60}
	}
	d := darpe.MustCompile("E>*")
	fmt.Fprintln(w, "SDMC scaling (Theorem 6.1): single-source counting time vs graph size")
	fmt.Fprintf(w, "%6s %10s %10s %22s %12s\n", "n", "vertices", "edges", "paths v0->vn", "count time")
	for _, n := range sizes {
		g := graph.BuildDiamondChain(n)
		v0, _ := g.VertexByKey("V", "v0")
		vn, _ := g.VertexByKey("V", fmt.Sprintf("v%d", n))
		start := time.Now()
		c, err := match.CountASPCtx(context.Background(), g, d, v0)
		el := time.Since(start)
		if err != nil {
			return err
		}
		paths := fmt.Sprintf("%d", c.Mult[vn])
		if c.Saturated {
			paths = "2^" + fmt.Sprint(n) + " (saturated)"
		}
		fmt.Fprintf(w, "%6d %10d %10d %22s %12s\n", n, g.NumVertices(), g.NumEdges(), paths, fmtDur(el))
	}
	return nil
}

// ShortcutAblation times the same Q_n with and without the Appendix A
// multiplicity shortcut: without it, a binding of multiplicity 2^n
// executes the ACCUM clause 2^n times.
func ShortcutAblation(w io.Writer, ns []int, cellTimeout time.Duration) error {
	if len(ns) == 0 {
		ns = []int{4, 8, 12, 16, 20}
	}
	if cellTimeout <= 0 {
		cellTimeout = time.Minute
	}
	fmt.Fprintln(w, "Appendix A ablation: compressed binding table vs replicated acc-executions")
	fmt.Fprintf(w, "%4s %14s %18s\n", "n", "with shortcut", "without shortcut")
	dead := false
	for _, n := range ns {
		g := graph.BuildDiamondChain(n)
		withT, err := timeQn(g, n, false)
		if err != nil {
			return err
		}
		cell := "-"
		if !dead {
			withoutT, err := timeQn(g, n, true)
			if err != nil {
				return err
			}
			cell = fmtDur(withoutT)
			if withoutT > cellTimeout {
				dead = true
			}
		}
		fmt.Fprintf(w, "%4d %14s %18s\n", n, fmtDur(withT), cell)
	}
	return nil
}

func timeQn(g *graph.Graph, n int, noShortcut bool) (time.Duration, error) {
	e := core.New(g, core.Options{NoMultiplicityShortcut: noShortcut})
	if err := e.Install(qnSource); err != nil {
		return 0, err
	}
	args := map[string]value.Value{
		"srcName": value.NewString("v0"),
		"tgtName": value.NewString(fmt.Sprintf("v%d", n)),
	}
	start := time.Now()
	if _, err := e.Run("Qn", args); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}
