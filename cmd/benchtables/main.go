// Command benchtables regenerates every table and figure of the
// paper's evaluation:
//
//	benchtables -table 1     # Table 1: diamond-chain Q_n, three engines
//	benchtables -table snb   # Section 7.1: SNB IC queries, ASP vs NRE
//	benchtables -table appb  # Appendix B: Qgs vs Qacc speedups
//	benchtables -table sdmc  # Theorem 6.1 scaling evidence
//	benchtables -table ablation # Appendix A multiplicity shortcut
//	benchtables -table all
//
// Scale knobs (-maxn, -sf, -hops, -timeout) default to laptop-friendly
// sizes; raise them to approach the paper's ranges.
//
// An unknown -table name exits 2, listing the valid ones, before any
// table work runs.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"gsqlgo/internal/bench"
)

// tables lists the valid -table values.
var tables = []string{"1", "snb", "appb", "sdmc", "ablation", "all"}

// checkTable rejects a -table value that names no table, so a typo
// fails loudly instead of silently running nothing.
func checkTable(name string) error {
	if slices.Contains(tables, name) {
		return nil
	}
	return fmt.Errorf("unknown -table %q (valid: %s)", name, strings.Join(tables, "|"))
}

func main() {
	table := flag.String("table", "all", "which table to regenerate: "+strings.Join(tables, "|"))
	maxN := flag.Int("maxn", 24, "Table 1: maximum diamond count (paper: 30)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-cell timeout for enumeration engines (paper: 10m)")
	sfs := flag.String("sf", "0.3,1,3", "SNB/Appendix B scale factors, comma separated")
	hops := flag.String("hops", "2,3,4", "SNB KNOWS hop counts, comma separated")
	reps := flag.Int("reps", 5, "Appendix B repetitions per query (median reported)")
	seed := flag.Int64("seed", 7, "generator seed")
	flag.Parse()

	if err := checkTable(*table); err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(2)
	}
	sfList, err := parseFloats(*sfs)
	if err != nil {
		log.Fatalf("bad -sf: %v", err)
	}
	hopList, err := parseInts(*hops)
	if err != nil {
		log.Fatalf("bad -hops: %v", err)
	}

	run := func(name string, f func() error) {
		fmt.Printf("\n──────── %s ────────\n\n", name)
		if err := f(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
	}
	w := os.Stdout
	want := func(t string) bool { return *table == "all" || *table == t }

	if want("1") {
		run("Table 1 (Section 7.1, diamond chain)", func() error {
			return bench.Table1(w, bench.Table1Config{MaxN: *maxN, CellTimeout: *timeout})
		})
	}
	if want("snb") {
		run("Section 7.1 SNB IC table", func() error {
			return bench.SNBTable(w, bench.SNBConfig{SFs: sfList, Hops: hopList, Seed: *seed})
		})
	}
	if want("appb") {
		run("Appendix B (Qgs vs Qacc)", func() error {
			return bench.AppendixB(w, bench.AppendixBConfig{SFs: sfList, Reps: *reps, Seed: *seed})
		})
	}
	if want("sdmc") {
		run("SDMC scaling (Theorem 6.1)", func() error {
			return bench.SDMCScaling(w, nil)
		})
	}
	if want("ablation") {
		run("Appendix A multiplicity-shortcut ablation", func() error {
			return bench.ShortcutAblation(w, nil, *timeout)
		})
	}
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}
