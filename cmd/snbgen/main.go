// Command snbgen generates the SNB-like social-network dataset of
// Section 7.1 / Appendix B to a directory of CSV files (plus
// schema.json) consumable by cmd/gsql:
//
//	snbgen -sf 1 -out ./snb-sf1
//	gsql -data ./snb-sf1 -query myquery.gsql -run MyQuery ...
//
// -mutations N additionally writes mutations.jsonl: N records of the
// deterministic SNB-shaped update stream (add_vertex / add_edge /
// set_attr, one JSON object per line) consistent with the generated
// graph — the write side of a sustained-load workload (see
// benchmark/README.md).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"gsqlgo/internal/ldbc"
)

func main() {
	sf := flag.Float64("sf", 1, "scale factor (persons ≈ 1000·sf)")
	seed := flag.Int64("seed", 7, "generator seed")
	deg := flag.Int("knows-degree", 0, "average KNOWS degree (0 = default)")
	out := flag.String("out", "snb-data", "output directory")
	mutations := flag.Int("mutations", 0, "also write N mutation-stream records to mutations.jsonl")
	mutPrefix := flag.String("mutation-prefix", "mut", "key namespace for vertices the mutation stream adds")
	flag.Parse()

	cfg := ldbc.Config{SF: *sf, Seed: *seed, AvgKnowsDegree: *deg}
	g := ldbc.Generate(cfg)
	if err := g.DumpCSV(*out); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d vertices, %d edges to %s\n", g.NumVertices(), g.NumEdges(), *out)
	if *mutations > 0 {
		path := filepath.Join(*out, "mutations.jsonl")
		if err := writeMutations(path, cfg, *mutations, *seed, *mutPrefix); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d mutation records to %s\n", *mutations, path)
	}
}

func writeMutations(path string, cfg ldbc.Config, n int, seed int64, prefix string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, m := range ldbc.Mutations(cfg, n, seed, prefix) {
		if err := enc.Encode(m); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
