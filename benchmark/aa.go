package main

import (
	"fmt"
	"math"
	"os"
)

// runAA measures the benchmark against itself. A set runs every named
// workload n times, timed, on seeds seed..seed+n-1 — other inputs each
// time, as the acceptance check does — and prints each end-to-end
// metric's median, quartiles and spread (interquartile distance over
// median). A spread above the metric's bound, or any failed request,
// fails the command. With check a second set runs the same seeds, and
// a metric whose two medians differ, either way, by more than its bound
// fails the command too.
func runAA(j *janitor, bin string, o options, names []string, n int, check bool) int {
	sets := 1
	if check {
		sets = 2
	}
	o.trace = false
	// medians[set][workload][metric]
	medians := make([]map[string]map[string]float64, sets)
	code := 0
	for s := 0; s < sets; s++ {
		medians[s] = map[string]map[string]float64{}
		for _, name := range names {
			values := map[string][]float64{}
			attempted, failed := 0, 0
			for k := 0; k < n; k++ {
				run := o
				run.workload, run.seed = name, o.seed+int64(k)
				res := runWorkload(j, bin, run)
				if !res.Correct {
					res.print(os.Stdout)
					return 1
				}
				for m, v := range res.EndToEnd {
					values[m] = append(values[m], v)
				}
				attempted += res.Attempted
				failed += res.Failed
			}
			medians[s][name] = map[string]float64{}
			fmt.Printf("\n== A/A set %d, %s, %d runs of %d s ==\n", s+1, name, n, o.seconds)
			for _, m := range endToEnd {
				q1, med, q3, share := spread(values[m.Name])
				medians[s][name][m.Name] = med
				note := ""
				if share > m.Bound {
					note = "  SPREAD ABOVE BOUND"
					code = 1
				}
				fmt.Printf("  %-16s median %12.4f %-4s q1 %12.4f  q3 %12.4f  spread %.4f (bound %.2f)%s\n",
					m.Name, med, m.Unit, q1, q3, share, m.Bound, note)
			}
			note := ""
			if failed > 0 { // the baseline is 0: any failure is an increase
				note = "  FAILED REQUESTS"
				code = 1
			}
			fmt.Printf("  %-16s %.5f share (%d failed / %d attempted)%s\n", "failed_share",
				ratio(float64(failed), float64(attempted)), failed, attempted, note)
		}
	}
	if !check {
		return code
	}
	fmt.Printf("\n== A/A check: second set against first ==\n")
	for _, name := range names {
		for _, m := range endToEnd {
			a, b := medians[0][name][m.Name], medians[1][name][m.Name]
			diff := (b - a) / a
			verdict := "ok"
			if math.Abs(diff) > m.Bound {
				verdict = "FAIL"
				code = 1
			}
			fmt.Printf("  %-10s %-16s %12.4f -> %12.4f  %+.4f (bound %.2f) %s\n", name, m.Name, a, b, diff, m.Bound, verdict)
		}
	}
	return code
}
