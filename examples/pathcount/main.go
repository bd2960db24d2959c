// Command pathcount walks through the paper's path-semantics material:
// the legality-flavor contrast of Examples 9 and 10 (graphs G1 and
// G2), the fixed-unique-length cycle of Section 6.1, and the diamond
// chain of Example 11 / Section 7.1, where all-shortest-paths counting
// stays in microseconds while non-repeated-edge enumeration doubles
// with every added diamond.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"gsqlgo/internal/darpe"
	"gsqlgo/internal/graph"
	"gsqlgo/internal/match"
)

func main() {
	maxN := flag.Int("n", 18, "diamond chain size for the timing sweep")
	flag.Parse()

	fmt.Println("== Example 9: legality flavors on G1, pattern E>* from 1 to 5 ==")
	g1 := graph.BuildG1()
	d := darpe.MustCompile("E>*")
	src, _ := g1.VertexByKey("V", "1")
	dst, _ := g1.VertexByKey("V", "5")
	_, asp, _, err := match.CountASPPair(g1, d, src, dst)
	if err != nil {
		log.Fatal(err)
	}
	nre, err := match.CountEnumPair(g1, d, src, dst, match.NonRepeatedEdge, match.EnumLimits{})
	if err != nil {
		log.Fatal(err)
	}
	nrv, err := match.CountEnumPair(g1, d, src, dst, match.NonRepeatedVertex, match.EnumLimits{})
	if err != nil {
		log.Fatal(err)
	}
	ex, err := match.CountExists(g1, d, src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  non-repeated-vertex: %d   (paper: 3)\n", nrv)
	fmt.Printf("  non-repeated-edge:   %d   (paper: 4)\n", nre)
	fmt.Printf("  all-shortest-paths:  %d   (paper: 2)\n", asp)
	fmt.Printf("  SparQL existence:    %d   (paper: 1)\n", ex.Mult[dst])

	fmt.Println("\n== Example 10: G2, pattern E>*.F>.E>* from 1 to 4 ==")
	g2 := graph.BuildG2()
	d2 := darpe.MustCompile("E>*.F>.E>*")
	s2, _ := g2.VertexByKey("V", "1")
	t2, _ := g2.VertexByKey("V", "4")
	_, asp2, _, err := match.CountASPPair(g2, d2, s2, t2)
	if err != nil {
		log.Fatal(err)
	}
	nre2, _ := match.CountEnumPair(g2, d2, s2, t2, match.NonRepeatedEdge, match.EnumLimits{})
	nrv2, _ := match.CountEnumPair(g2, d2, s2, t2, match.NonRepeatedVertex, match.EnumLimits{})
	fmt.Printf("  all-shortest-paths finds %d match (the path repeats vertex 2, 3 and an edge)\n", asp2)
	fmt.Printf("  non-repeating semantics find %d and %d matches\n", nre2, nrv2)

	fmt.Println("\n== Section 6.1: fixed-unique-length pattern on the A/B/C cycle ==")
	cyc := graph.BuildABCCycle()
	d3 := darpe.MustCompile("A>.(B>|D>)._>.A>")
	v, _ := cyc.VertexByKey("V", "v")
	u, _ := cyc.VertexByKey("V", "u")
	_, asp3, ok3, err := match.CountASPPair(cyc, d3, v, u)
	if err != nil {
		log.Fatal(err)
	}
	nre3, _ := match.CountEnumPair(cyc, d3, v, u, match.NonRepeatedEdge, match.EnumLimits{})
	fmt.Printf("  all-shortest-paths: match=%v count=%d (wraps the cycle)\n", ok3, asp3)
	fmt.Printf("  non-repeated-edge:  count=%d (cycle wrap disallowed)\n", nre3)

	fmt.Printf("\n== Example 11 / Table 1: diamond chain, counting vs enumerating ==\n")
	fmt.Printf("%4s  %14s  %12s  %12s\n", "n", "paths", "ASP-count", "NRE-enum")
	g := graph.BuildDiamondChain(*maxN)
	v0, _ := g.VertexByKey("V", "v0")
	for n := 2; n <= *maxN; n += 2 {
		vn, _ := g.VertexByKey("V", fmt.Sprintf("v%d", n))
		start := time.Now()
		_, cnt, _, err := match.CountASPPair(g, d, v0, vn)
		aspT := time.Since(start)
		if err != nil {
			log.Fatal(err)
		}
		start = time.Now()
		ecnt, err := match.CountEnumPair(g, d, v0, vn, match.NonRepeatedEdge, match.EnumLimits{})
		if err != nil {
			log.Fatal(err)
		}
		enumT := time.Since(start)
		if cnt != ecnt {
			log.Fatalf("count mismatch at n=%d: %d vs %d", n, cnt, ecnt)
		}
		fmt.Printf("%4d  %14d  %12s  %12s\n", n, cnt, aspT.Round(time.Microsecond), enumT.Round(time.Microsecond))
	}
	fmt.Println("\nThe counting column stays flat while enumeration doubles per diamond —")
	fmt.Println("Theorem 6.1's tractability, the core experimental claim of Section 7.1.")
}
