package main

import (
	"fmt"
	"time"

	"gsqlgo/internal/accum"
	"gsqlgo/internal/core"
	"gsqlgo/internal/darpe"
	"gsqlgo/internal/gsql"
	"gsqlgo/internal/ldbc"
	"gsqlgo/internal/storage"
	"gsqlgo/internal/value"
)

// Measurements of single public calls that no workload isolates. They
// do not depend on the workload and are taken in every traced run, on
// the ladder's in-process state, after the last traced op.

// perCall times n calls of fn and returns the mean in ns.
func perCall(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// medianOf times fn n times and returns the median in the given unit.
func medianOf(n int, unit time.Duration, fn func(i int)) float64 {
	xs := make([]float64, n)
	for i := range xs {
		start := time.Now()
		fn(i)
		xs[i] = float64(time.Since(start)) / float64(unit)
	}
	return median(xs)
}

// accumInputs times the package's public input call for the three
// accumulator shapes PageRank and Qacc lean on.
func accumInputs(m map[string]float64) error {
	const n = 100000
	sum, err := accum.New(accum.SumSpec(value.KindFloat))
	if err != nil {
		return err
	}
	one := value.NewFloat(1.5)
	m["accum_sum_input_ns"] = perCall(n, func(int) { err = sum.Input(one, 1) })
	if err != nil {
		return err
	}

	tuple := &accum.TupleType{Name: "CDT", Fields: []accum.TupleField{
		{Name: "creationDate", Kind: value.KindDatetime}, {Name: "length", Kind: value.KindInt}, {Name: "id", Kind: value.KindString}}}
	heapSpec := accum.HeapSpec(tuple, 20, accum.SortField{Field: "creationDate", Desc: true}, accum.SortField{Field: "length", Desc: true})
	heap, err := accum.New(heapSpec)
	if err != nil {
		return err
	}
	tuples := make([]value.Value, 1024)
	for i := range tuples {
		// A fixed scatter of dates and lengths, so some inputs enter the
		// top 20 and most are rejected, as in Qacc.
		tuples[i] = value.NewTuple([]value.Value{
			value.NewDatetime(1230768000 + int64(i*7919%100000)), value.NewInt(int64(i * 31 % 500)), value.NewString("comment")})
	}
	m["accum_heap_input_ns"] = perCall(n, func(i int) { err = heap.Input(tuples[i%len(tuples)], 1) })
	if err != nil {
		return err
	}

	group, err := accum.New(accum.GroupBySpec(
		[]value.Kind{value.KindString, value.KindInt}, []*accum.Spec{accum.SumSpec(value.KindInt), accum.AvgSpec(value.KindFloat)}))
	if err != nil {
		return err
	}
	inputs := make([]value.Value, 1024)
	for i := range inputs {
		inputs[i] = value.NewTuple([]value.Value{
			value.NewString(fmt.Sprintf("city%d", i%40)), value.NewInt(int64(2009 + i%4)), value.NewInt(1), value.NewFloat(float64(i % 500))})
	}
	m["accum_groupby_input_ns"] = perCall(n, func(i int) { err = group.Input(inputs[i%len(inputs)], 1) })
	return err
}

// frontEnd times parsing, DFA compilation and installation of the
// sources the benchmark installs — the part of setup_s that is the
// language front end's.
func frontEnd(m map[string]float64) error {
	_, srcs := sources()
	var err error
	m["parse_us"] = medianOf(len(srcs)*5, time.Microsecond, func(i int) {
		if _, e := gsql.Parse(srcs[i%len(srcs)]); e != nil {
			err = e
		}
	})
	patterns := []string{fmt.Sprintf("Knows*1..%d", icHops), "Knows*", "<CommentHasCreator.CommentLocatedIn>"}
	m["dfa_compile_us"] = medianOf(len(patterns)*10, time.Microsecond, func(i int) {
		if _, e := darpe.Compile(patterns[i%len(patterns)]); e != nil {
			err = e
		}
	})
	g := ldbc.Generate(snbConfig())
	var eng *core.Engine
	m["install_ms"] = medianOf(len(srcs)*3, time.Millisecond, func(i int) {
		if i%len(srcs) == 0 {
			// A fresh catalog for each pass over the sources.
			eng = core.New(g, core.Options{})
		}
		if e := eng.Install(srcs[i%len(srcs)]); e != nil {
			err = e
		}
	})
	return err
}

// graphAndStorage times the calls the write path and the first read
// after a write pay, on the ladder's bare graph and rung-2 store.
func (l *ladder) graphAndStorage(m map[string]float64) error {
	head := l.storeB.Graph()
	m["snapshot_pin_ns"] = perCall(200000, func(int) { head.Snapshot() })

	// Edges between base Persons from a stream of their own, so they are
	// new to the bare graph whatever the workload wrote.
	edges := make([]ldbc.Mutation, 0, 64)
	gen := ldbc.NewMutGen(snbConfig(), graphSeed, "micro")
	for i := uint64(0); len(edges) < cap(edges); i++ {
		if mu := gen.At(i); mu.Op == ldbc.OpAddEdge && mu.Type == "Knows" {
			edges = append(edges, mu)
		}
	}
	// freeze_ms is the CSR the first read after a write has to build: a
	// patch of one new edge over the base. fold_ms is a fold with one
	// edge pending plus the base rebuild the next read pays for it.
	l.bare.Freeze()
	var freeze, fold []float64
	for i, mu := range edges {
		if err := ldbc.Apply(l.bare, mu); err != nil {
			return err
		}
		start := time.Now()
		if i < len(edges)/2 {
			l.bare.Freeze()
			freeze = append(freeze, float64(time.Since(start))/float64(time.Millisecond))
		} else {
			l.bare.Fold()
			l.bare.Freeze()
			fold = append(fold, float64(time.Since(start))/float64(time.Millisecond))
		}
	}
	m["freeze_ms"], m["fold_ms"] = median(freeze), median(fold)

	var err error
	m["checkpoint_ms"] = medianOf(3, time.Millisecond, func(int) {
		if e := l.storeB.Checkpoint(); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	snap, err := storage.EncodeSnapshot(head)
	if err != nil {
		return err
	}
	m["snapshot_bytes_per_element"] = float64(len(snap)) / float64(head.NumVertices()+head.NumEdges())
	return nil
}
