package ldbc

import (
	"fmt"

	"gsqlgo/internal/graph"
	"gsqlgo/internal/value"
)

// This file generates the write side of an SNB-shaped workload: a
// deterministic, seeded stream of AddVertex / AddEdge / SetVertexAttr
// mutations consistent with the schema and key space of Generate. The
// stream is *interleavable*: record i is a pure function of (config,
// seed, prefix, i), new vertices get keys in a caller-chosen namespace
// that cannot collide with Generate's, and edges and attribute updates
// only ever reference base-graph vertices — so any subset of records,
// applied concurrently in any order, succeeds against a graph built by
// Generate with the same Config. The benchmark harness drives a running
// gsqld with it (see benchmark/README.md); cmd/snbgen -mutations writes
// it to disk for replay tools.

// Mutation op names, used both in the JSONL form snbgen emits and on
// the wire when a load generator replays records over HTTP.
const (
	OpAddVertex = "add_vertex"
	OpAddEdge   = "add_edge"
	OpSetAttr   = "set_attr"
)

// Mutation is one schema-consistent write. Attrs hold plain Go values
// (int64 for int and Unix-seconds datetime, float64, string, bool) so
// the record marshals to the exact JSON gsqld's mutation routes accept;
// Apply converts them by schema for in-process use.
type Mutation struct {
	Op   string `json:"op"`
	Type string `json:"type"`
	// Key addresses the vertex for add_vertex and set_attr.
	Key string `json:"key,omitempty"`
	// Src/Dst address the endpoints for add_edge.
	SrcType string         `json:"src_type,omitempty"`
	SrcKey  string         `json:"src_key,omitempty"`
	DstType string         `json:"dst_type,omitempty"`
	DstKey  string         `json:"dst_key,omitempty"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// MutGen generates the mutation stream. The zero value is not useful;
// build one with NewMutGen.
type MutGen struct {
	seed     int64
	prefix   string
	persons  int
	comments int
}

// NewMutGen builds a generator for the graph Generate(cfg) produces.
// prefix namespaces the keys of added vertices ("" defaults to "mut");
// re-running a stream against the same durable store needs a fresh
// prefix, or the re-added keys 409.
func NewMutGen(cfg Config, seed int64, prefix string) *MutGen {
	if prefix == "" {
		prefix = "mut"
	}
	return &MutGen{
		seed:     seed,
		prefix:   prefix,
		persons:  cfg.persons(),
		comments: cfg.comments(),
	}
}

// mix64 is splitmix64's finalizer: a cheap, statistically solid way to
// turn (seed, index, salt) into independent pseudo-random draws without
// any shared generator state — which is what makes record i a pure
// function of i.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (g *MutGen) draw(i uint64, salt uint64) uint64 {
	return mix64(uint64(g.seed) ^ mix64(i) ^ salt)
}

// Mutation weights per 100 records: the stream leans toward vertex
// inserts (the cheap, always-safe op), keeps a realistic share of edge
// growth between existing persons, and sprinkles attribute updates —
// roughly the shape of SNB's update streams (new messages and persons,
// new KNOWS edges, profile changes).
const (
	wAddPerson  = 35 // add_vertex Person
	wAddComment = 15 // add_vertex Comment
	wKnows      = 30 // add_edge Knows between base persons
	wLikes      = 10 // add_edge Likes base person -> base comment
	wSetAttr    = 10 // set_attr on a base person
)

// At returns record i of the stream. Records are independent: edges and
// attribute updates reference only base-graph vertices, and added
// vertices get globally unique keys, so applying any subset in any
// order (or concurrently) succeeds.
func (g *MutGen) At(i uint64) Mutation {
	kind := g.draw(i, 0x6d757461) % 100
	switch {
	case kind < wAddPerson:
		gender := "male"
		if g.draw(i, 1)%2 == 0 {
			gender = "female"
		}
		return Mutation{
			Op:   OpAddVertex,
			Type: "Person",
			Key:  fmt.Sprintf("%s-p%d", g.prefix, i),
			Attrs: map[string]any{
				"firstName":   fmt.Sprintf("New%d", i),
				"lastName":    fmt.Sprintf("Last%d", g.draw(i, 2)%997),
				"gender":      gender,
				"birthday":    epoch1950 + int64(g.draw(i, 3)%uint64(epoch2000-epoch1950)),
				"browserUsed": browsers[g.draw(i, 4)%uint64(len(browsers))],
			},
		}
	case kind < wAddPerson+wAddComment:
		return Mutation{
			Op:   OpAddVertex,
			Type: "Comment",
			Key:  fmt.Sprintf("%s-c%d", g.prefix, i),
			Attrs: map[string]any{
				"creationDate": epoch2009 + int64(g.draw(i, 5)%uint64(epoch2013-epoch2009)),
				"length":       1 + int64(g.draw(i, 6)%500),
				"browserUsed":  browsers[g.draw(i, 7)%uint64(len(browsers))],
			},
		}
	case kind < wAddPerson+wAddComment+wKnows:
		a := g.draw(i, 8) % uint64(g.persons)
		b := g.draw(i, 9) % uint64(g.persons)
		if a == b {
			b = (b + 1) % uint64(g.persons)
		}
		return Mutation{
			Op:      OpAddEdge,
			Type:    "Knows",
			SrcType: "Person",
			SrcKey:  fmt.Sprintf("person%d", a),
			DstType: "Person",
			DstKey:  fmt.Sprintf("person%d", b),
			Attrs: map[string]any{
				"creationDate": epoch2009 + int64(g.draw(i, 10)%uint64(epoch2013-epoch2009)),
			},
		}
	case kind < wAddPerson+wAddComment+wKnows+wLikes:
		return Mutation{
			Op:      OpAddEdge,
			Type:    "Likes",
			SrcType: "Person",
			SrcKey:  fmt.Sprintf("person%d", g.draw(i, 11)%uint64(g.persons)),
			DstType: "Comment",
			DstKey:  fmt.Sprintf("comment%d", g.draw(i, 12)%uint64(g.comments)),
			Attrs: map[string]any{
				"creationDate": epoch2009 + int64(g.draw(i, 13)%uint64(epoch2013-epoch2009)),
			},
		}
	default:
		return Mutation{
			Op:    OpSetAttr,
			Type:  "Person",
			Key:   fmt.Sprintf("person%d", g.draw(i, 14)%uint64(g.persons)),
			Attrs: map[string]any{"browserUsed": browsers[g.draw(i, 15)%uint64(len(browsers))]},
		}
	}
}

// Mutations materializes the first n records of the stream — the form
// cmd/snbgen -mutations writes to disk.
func Mutations(cfg Config, n int, seed int64, prefix string) []Mutation {
	g := NewMutGen(cfg, seed, prefix)
	out := make([]Mutation, n)
	for i := range out {
		out[i] = g.At(uint64(i))
	}
	return out
}

// Apply executes one mutation against an in-process graph, converting
// Attrs by the schema's declared types — the same coercions gsqld's
// mutation routes perform on JSON bodies.
func Apply(g *graph.Graph, m Mutation) error {
	switch m.Op {
	case OpAddVertex:
		vt := g.Schema.VertexType(m.Type)
		if vt == nil {
			return fmt.Errorf("ldbc: unknown vertex type %q", m.Type)
		}
		attrs, err := coerceAttrs(vt.Attrs, m.Attrs)
		if err != nil {
			return err
		}
		_, err = g.AddVertex(m.Type, m.Key, attrs)
		return err
	case OpAddEdge:
		et := g.Schema.EdgeType(m.Type)
		if et == nil {
			return fmt.Errorf("ldbc: unknown edge type %q", m.Type)
		}
		attrs, err := coerceAttrs(et.Attrs, m.Attrs)
		if err != nil {
			return err
		}
		src, ok := g.VertexByKey(m.SrcType, m.SrcKey)
		if !ok {
			return fmt.Errorf("ldbc: no %s vertex %q", m.SrcType, m.SrcKey)
		}
		dst, ok := g.VertexByKey(m.DstType, m.DstKey)
		if !ok {
			return fmt.Errorf("ldbc: no %s vertex %q", m.DstType, m.DstKey)
		}
		_, err = g.AddEdge(m.Type, src, dst, attrs)
		return err
	case OpSetAttr:
		vt := g.Schema.VertexType(m.Type)
		if vt == nil {
			return fmt.Errorf("ldbc: unknown vertex type %q", m.Type)
		}
		attrs, err := coerceAttrs(vt.Attrs, m.Attrs)
		if err != nil {
			return err
		}
		v, ok := g.VertexByKey(m.Type, m.Key)
		if !ok {
			return fmt.Errorf("ldbc: no %s vertex %q", m.Type, m.Key)
		}
		for name, val := range attrs {
			if err := g.SetVertexAttr(v, name, val); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("ldbc: unknown mutation op %q", m.Op)
}

// coerceAttrs converts the stream's plain-Go attribute values into
// typed engine values, guided by the declared AttrDefs.
func coerceAttrs(defs []graph.AttrDef, raw map[string]any) (map[string]value.Value, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	byName := make(map[string]graph.AttrType, len(defs))
	for _, d := range defs {
		byName[d.Name] = d.Type
	}
	out := make(map[string]value.Value, len(raw))
	for name, rv := range raw {
		at, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("ldbc: unknown attribute %q", name)
		}
		v, err := coerceAttr(at, rv)
		if err != nil {
			return nil, fmt.Errorf("ldbc: attribute %q: %w", name, err)
		}
		out[name] = v
	}
	return out, nil
}

func coerceAttr(at graph.AttrType, rv any) (value.Value, error) {
	switch at {
	case graph.AttrInt:
		if x, ok := rv.(int64); ok {
			return value.NewInt(x), nil
		}
	case graph.AttrFloat:
		if x, ok := rv.(float64); ok {
			return value.NewFloat(x), nil
		}
	case graph.AttrString:
		if x, ok := rv.(string); ok {
			return value.NewString(x), nil
		}
	case graph.AttrBool:
		if x, ok := rv.(bool); ok {
			return value.NewBool(x), nil
		}
	case graph.AttrDatetime:
		if x, ok := rv.(int64); ok {
			return value.NewDatetime(x), nil
		}
	}
	return value.Null, fmt.Errorf("cannot coerce %T to %v", rv, at)
}
