// Command gsql runs GSQL queries against a graph loaded from CSV (the
// cmd/snbgen layout) or one of the built-in paper graphs:
//
//	gsql -data ./snb-sf1 -query q.gsql -run MyQuery -arg p=vertex:Person:person0 -arg k=int:10
//	gsql -builtin diamond:20 -query qn.gsql -run Qn -arg srcName=v0 -arg tgtName=v20
//	gsql -builtin g1 -semantics nre -query qn.gsql -run Qn -arg srcName=1 -arg tgtName=5
//
// Argument syntax: name=value with optional explicit type prefix —
// int:, float:, string:, bool:, datetime:, vertex:<Type>:<key>.
// Untyped values are inferred (int, then float, then datetime, then
// string).
//
// With -data-dir the graph comes from (and persists to) a durable
// store — recovered if the directory holds one, seeded from
// -data/-builtin otherwise — and -checkpoint snapshots it on exit.
// With -i the command drops into a meta-command loop (\help lists the
// commands, including \save/\load for moving graphs through snapshot
// files and \checkpoint for the store).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"

	"gsqlgo/internal/core"
	"gsqlgo/internal/graph"
	"gsqlgo/internal/ldbc"
	"gsqlgo/internal/match"
	"gsqlgo/internal/storage"
	"gsqlgo/internal/trace"
	"gsqlgo/internal/value"
)

type argList []string

func (a *argList) String() string     { return strings.Join(*a, ",") }
func (a *argList) Set(s string) error { *a = append(*a, s); return nil }

func main() {
	data := flag.String("data", "", "directory with schema.json and CSV files (from snbgen or DumpCSV)")
	builtin := flag.String("builtin", "", "built-in graph: diamond:N | sales | snb:SF | g1 | g2 | linkgraph:N")
	dataDir := flag.String("data-dir", "", "durable store directory (snapshots + WAL); recovered if present, seeded from -data/-builtin otherwise")
	checkpoint := flag.Bool("checkpoint", false, "checkpoint the -data-dir store before exiting")
	interactive := flag.Bool("i", false, `interactive meta-command loop (\help lists commands)`)
	queryFile := flag.String("query", "", "GSQL source file to install")
	run := flag.String("run", "", "query name to run")
	profile := flag.Bool("profile", false, "trace the -run query and print an EXPLAIN ANALYZE span tree after the result")
	semantics := flag.String("semantics", "asp", "path semantics: asp | nre | nrv | exists")
	workers := flag.Int("workers", 0, "ACCUM workers (0 = GOMAXPROCS)")
	var args argList
	flag.Var(&args, "arg", "query argument name=value (repeatable)")
	flag.Parse()

	var g *graph.Graph
	var st *storage.Store
	if *dataDir != "" {
		var err error
		st, err = storage.Open(*dataDir, storage.Options{
			Init: func() (*graph.Graph, error) { return loadGraph(*data, *builtin) },
		})
		if err != nil {
			log.Fatal(err)
		}
		g = st.Graph()
		if st.Recovered() {
			fmt.Fprintf(os.Stderr, "recovered %s: %d vertices, %d WAL records replayed\n",
				*dataDir, g.NumVertices(), st.Stats().ReplayedRecords)
		}
	} else {
		var err error
		g, err = loadGraph(*data, *builtin)
		if err != nil {
			log.Fatal(err)
		}
	}
	sem, err := parseSemantics(*semantics)
	if err != nil {
		log.Fatal(err)
	}
	opts := core.Options{Semantics: sem, Workers: *workers}

	if *interactive {
		s := newSession(g, st, opts, os.Stdout)
		if *queryFile != "" {
			src, err := os.ReadFile(*queryFile)
			if err != nil {
				log.Fatal(err)
			}
			if err := s.install(string(src)); err != nil {
				log.Fatal(err)
			}
		}
		if err := repl(os.Stdin, s); err != nil {
			log.Fatal(err)
		}
		closeStore(st, *checkpoint)
		return
	}

	e := core.New(g, opts)
	if *queryFile == "" {
		log.Fatal("missing -query file (or -i for interactive mode)")
	}
	src, err := os.ReadFile(*queryFile)
	if err != nil {
		log.Fatal(err)
	}
	if err := e.Install(string(src)); err != nil {
		log.Fatal(err)
	}
	if *run == "" {
		fmt.Println("installed queries:", strings.Join(e.Queries(), ", "))
		closeStore(st, *checkpoint)
		return
	}
	argVals, err := parseArgs(g, args)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	var root *trace.Span
	if *profile {
		root = trace.New("query")
		ctx = trace.NewContext(ctx, root)
	}
	res, err := e.RunCtx(ctx, *run, argVals)
	root.End()
	if err != nil {
		log.Fatal(err)
	}
	printResult(res)
	if root != nil {
		fmt.Println()
		trace.Render(os.Stdout, root)
	}
	closeStore(st, *checkpoint)
}

// closeStore checkpoints (when asked) and closes the durable store, if
// one was opened.
func closeStore(st *storage.Store, checkpoint bool) {
	if st == nil {
		return
	}
	if checkpoint {
		if err := st.Checkpoint(); err != nil {
			log.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		log.Fatal(err)
	}
}

func loadGraph(data, builtin string) (*graph.Graph, error) {
	switch {
	case data != "" && builtin != "":
		return nil, fmt.Errorf("use either -data or -builtin, not both")
	case data != "":
		return graph.LoadCSVDir(data)
	case builtin != "":
		return builtinGraph(builtin)
	default:
		return nil, fmt.Errorf("missing -data directory or -builtin graph")
	}
}

func builtinGraph(spec string) (*graph.Graph, error) {
	name, param, _ := strings.Cut(spec, ":")
	switch name {
	case "diamond":
		n, err := strconv.Atoi(param)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("diamond:N requires a positive N, got %q", param)
		}
		return graph.BuildDiamondChain(n), nil
	case "sales":
		return graph.BuildSalesGraph(graph.SalesGraphConfig{
			Customers: 50, Products: 30, Sales: 400, Likes: 600, Seed: 42,
		}), nil
	case "snb":
		sf := 1.0
		if param != "" {
			f, err := strconv.ParseFloat(param, 64)
			if err != nil {
				return nil, fmt.Errorf("snb:SF requires a number, got %q", param)
			}
			sf = f
		}
		return ldbc.Generate(ldbc.Config{SF: sf, Seed: 7}), nil
	case "g1":
		return graph.BuildG1(), nil
	case "g2":
		return graph.BuildG2(), nil
	case "linkgraph":
		n, err := strconv.Atoi(param)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("linkgraph:N requires a positive N, got %q", param)
		}
		return graph.BuildLinkGraph(n, 8, 1), nil
	default:
		return nil, fmt.Errorf("unknown builtin graph %q", spec)
	}
}

func parseSemantics(s string) (match.Semantics, error) {
	switch strings.ToLower(s) {
	case "asp":
		return match.AllShortestPaths, nil
	case "nre":
		return match.NonRepeatedEdge, nil
	case "nrv":
		return match.NonRepeatedVertex, nil
	case "exists":
		return match.ShortestExists, nil
	default:
		return 0, fmt.Errorf("unknown semantics %q (asp|nre|nrv|exists)", s)
	}
}

func parseArgs(g *graph.Graph, args argList) (map[string]value.Value, error) {
	out := map[string]value.Value{}
	for _, a := range args {
		name, raw, ok := strings.Cut(a, "=")
		if !ok {
			return nil, fmt.Errorf("bad -arg %q (want name=value)", a)
		}
		v, err := parseArgValue(g, raw)
		if err != nil {
			return nil, fmt.Errorf("-arg %s: %w", name, err)
		}
		out[name] = v
	}
	return out, nil
}

func parseArgValue(g *graph.Graph, raw string) (value.Value, error) {
	typ, rest, typed := strings.Cut(raw, ":")
	if typed {
		switch typ {
		case "int":
			i, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				return value.Null, err
			}
			return value.NewInt(i), nil
		case "float":
			f, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				return value.Null, err
			}
			return value.NewFloat(f), nil
		case "string":
			return value.NewString(rest), nil
		case "bool":
			b, err := strconv.ParseBool(rest)
			if err != nil {
				return value.Null, err
			}
			return value.NewBool(b), nil
		case "datetime":
			return graph.ParseDatetime(rest)
		case "vertex":
			vt, key, ok := strings.Cut(rest, ":")
			if !ok {
				return value.Null, fmt.Errorf("vertex args use vertex:<Type>:<key>")
			}
			id, found := g.VertexByKey(vt, key)
			if !found {
				return value.Null, fmt.Errorf("no %s vertex with key %q", vt, key)
			}
			return value.NewVertex(int64(id)), nil
		}
	}
	// Inference: int, float, datetime, string.
	if i, err := strconv.ParseInt(raw, 10, 64); err == nil {
		return value.NewInt(i), nil
	}
	if f, err := strconv.ParseFloat(raw, 64); err == nil {
		return value.NewFloat(f), nil
	}
	if dt, err := graph.ParseDatetime(raw); err == nil {
		return dt, nil
	}
	return value.NewString(raw), nil
}

func printResult(res *core.Result) { fprintResult(os.Stdout, res) }

func fprintResult(w io.Writer, res *core.Result) {
	for _, t := range res.Printed {
		fmt.Fprintf(w, "== PRINT %s ==\n%s\n", t.Name, t)
	}
	names := make([]string, 0, len(res.Tables))
	for name := range res.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "== TABLE %s ==\n%s\n", name, res.Tables[name])
	}
	if res.Returned != nil {
		fmt.Fprintf(w, "== RETURN ==\n%s\n", res.Returned)
	}
	if names := res.GlobalNames(); len(names) > 0 {
		fmt.Fprintln(w, "== GLOBAL ACCUMULATORS ==")
		for _, name := range names {
			v, _ := res.Global(name)
			fmt.Fprintf(w, "@@%s = %s\n", name, v)
		}
	}
}
