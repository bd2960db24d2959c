package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"gsqlgo/internal/ldbc"
	"gsqlgo/internal/load"
)

// Analytic query sources live beside the benchmark; the IC family and
// Qacc (Appendix B) come from internal/ldbc unchanged.
var (
	//go:embed pagerank.gsql
	pageRankSource string
	//go:embed pathsall.gsql
	pathsAllSource string
)

// Op classes. A class is what latencies are grouped by.
const (
	classRead       = "read"
	classWrite      = "write"
	classCheckpoint = "checkpoint"
	classPageRank   = "pagerank"
	classQacc       = "qacc"
	classPaths      = "paths"
)

// isQuery reports whether a class runs an installed query.
func isQuery(class string) bool { return class != classWrite && class != classCheckpoint }

// op is one HTTP request of a workload's stream, in the exact bytes
// every rung of the traced run replays.
type op struct {
	class    string
	path     string
	body     []byte
	follower bool // reads only: serve from the follower

	query  string         // installed name (queries)
	params map[string]any // query parameters as load.Workload draws them
	mut    ldbc.Mutation  // the record (writes)

	// The single-source counts the query needs when the count cache is
	// cold: a DARPE over sdmcFrom, or over every Person when sdmcAll.
	sdmcPattern string
	sdmcFrom    string
	sdmcAll     bool
}

func snbConfig() ldbc.Config { return ldbc.Config{SF: snbSF, Seed: graphSeed} }

// sources returns every GSQL source the benchmark installs, in a fixed
// order, keyed by a label for the install report.
func sources() (labels, srcs []string) {
	family := ldbc.ICQueries(icHops)
	for _, q := range []string{"ic3", "ic5", "ic6", "ic9", "ic11"} {
		labels = append(labels, ldbc.ICName(q, icHops))
		srcs = append(srcs, family[q])
	}
	labels = append(labels, "PageRank", "Qacc", "PathsAll")
	srcs = append(srcs, pageRankSource, ldbc.QACC(), pathsAllSource)
	return labels, srcs
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of strings and numbers always marshal
	}
	return b
}

func queryOp(class, name string, params map[string]any) op {
	return op{
		class:  class,
		path:   "/queries/" + name + "/run",
		body:   mustJSON(map[string]any{"params": params}),
		query:  name,
		params: params,
	}
}

// icRead is read i of the seeded IC stream.
func icRead(w *load.Workload, i uint64) op {
	name, params := w.Read(i)
	o := queryOp(classRead, name, params)
	o.sdmcPattern = fmt.Sprintf("Knows*1..%d", icHops)
	o.sdmcFrom = params["p"].(string)
	return o
}

// writeOp maps a mutation record onto the gsqld write API, as
// load.Client does (its mapping is not exported).
func writeOp(m ldbc.Mutation) op {
	o := op{class: classWrite, mut: m}
	switch m.Op {
	case ldbc.OpAddVertex:
		o.path = "/graph/vertices"
		o.body = mustJSON(map[string]any{"type": m.Type, "key": m.Key, "attrs": m.Attrs})
	case ldbc.OpAddEdge:
		o.path = "/graph/edges"
		o.body = mustJSON(map[string]any{
			"type":  m.Type,
			"src":   map[string]string{"type": m.SrcType, "key": m.SrcKey},
			"dst":   map[string]string{"type": m.DstType, "key": m.DstKey},
			"attrs": m.Attrs,
		})
	case ldbc.OpSetAttr:
		o.path = "/graph/vertices/attrs"
		o.body = mustJSON(map[string]any{"type": m.Type, "key": m.Key, "attrs": m.Attrs})
	default:
		panic("unknown mutation op " + m.Op) // MutGen emits only the three above
	}
	return o
}

func checkpointOp() op {
	return op{class: classCheckpoint, path: "/admin/checkpoint", body: []byte("{}")}
}

// stream is a workload's op sequence: op i is a pure function of the
// seed, so the timed window, the output checks and every rung of the
// traced run see the same requests.
type stream struct {
	unit int // consecutive ops a client waits for as one (a round)
	at   func(i uint64) op
}

// newStream builds workload's stream; prefix namespaces the keys of the
// vertices its writes add, so warm-up and window never collide.
func newStream(workload string, seed int64, prefix string) (stream, error) {
	w, err := load.NewWorkload(snbConfig(), seed, icHops, nil, prefix)
	if err != nil {
		return stream{}, err
	}
	switch workload {
	case "ic-read":
		return stream{1, func(i uint64) op { return icRead(w, i) }}, nil
	case "write-only":
		return stream{1, func(i uint64) op { return writeOp(w.Write(i)) }}, nil
	case "ic-mixed":
		// Slot off of a block is a write when the evenly spaced write
		// count steps there; before[off] counts the writes ahead of it.
		var before [mixBlock]uint64
		for off := 1; off < mixBlock; off++ {
			before[off] = uint64(off * mixWrite / (mixBlock - 1))
		}
		return stream{1, func(i uint64) op {
			block, off := i/mixBlock, i%mixBlock
			switch {
			case off == mixBlock-1:
				return checkpointOp()
			case before[off+1] > before[off]:
				return writeOp(w.Write(block*mixWrite + before[off]))
			default:
				seq := block*mixRead + off - before[off]
				o := icRead(w, seq)
				o.follower = seq%2 == 1 // reads alternate leader and follower
				return o
			}
		}}, nil
	case "analytic":
		return stream{4, func(i uint64) op {
			switch i % 4 {
			case 0:
				return writeOp(isolatedPerson(w, i/4))
			case 1:
				return queryOp(classPageRank, "PageRank", map[string]any{
					"maxChange": 0.001, "maxIteration": 30, "dampingFactor": 0.85})
			case 2:
				return queryOp(classQacc, "Qacc", map[string]any{"lo": int64(1230768000), "hi": int64(1356998400)})
			default:
				o := queryOp(classPaths, "PathsAll", map[string]any{})
				o.sdmcPattern, o.sdmcAll = "Knows*", true
				return o
			}
		}}, nil
	}
	return stream{}, fmt.Errorf("unknown workload %q", workload)
}

// isolatedPerson returns the n-th Person insert of the seeded mutation
// stream: a vertex with no edges, which still moves the epoch and so
// leaves the count cache cold, as on a live graph.
func isolatedPerson(w *load.Workload, n uint64) ldbc.Mutation {
	// About a third of the stream's records are Person inserts; record
	// indices are spaced so that round n scans its own range.
	for i := n * 64; ; i++ {
		if m := w.Write(i); m.Op == ldbc.OpAddVertex && m.Type == "Person" {
			return m
		}
	}
}

// warmOps returns the requests a set-up sends before any timed window.
func warmOps(workload string, seed int64) ([]op, error) {
	var out []op
	switch workload {
	case "ic-read", "ic-mixed":
		// Every Person once through each installed IC query: 1500
		// (query, person) keys, fewer than the 4096-entry count cache.
		w, err := load.NewWorkload(snbConfig(), seed, icHops, nil, "warm")
		if err != nil {
			return nil, err
		}
		persons := uint64(snbConfig().Persons())
		for i := uint64(0); i < 5*persons; i++ {
			name, params := w.Read(i)
			params["p"] = fmt.Sprintf("person%d", i/5)
			o := queryOp(classRead, name, params)
			o.follower = workload == "ic-mixed" && i%2 == 1
			out = append(out, o)
		}
	case "write-only":
		w, err := load.NewWorkload(snbConfig(), seed, icHops, nil, "warm")
		if err != nil {
			return nil, err
		}
		for i := uint64(0); i < 500; i++ {
			out = append(out, writeOp(w.Write(i)))
		}
	case "analytic":
		s, err := newStream("analytic", seed, "warm")
		if err != nil {
			return nil, err
		}
		for i := uint64(0); i < 4; i++ {
			out = append(out, s.at(i))
		}
	}
	return out, nil
}
