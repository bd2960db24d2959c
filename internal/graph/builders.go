package graph

import (
	"fmt"
	"math/rand"
	"strconv"

	"gsqlgo/internal/value"
)

// mustVID panics on error; builders construct well-formed graphs by
// construction, so failures are programming errors.
func mustVID(v VID, err error) VID {
	if err != nil {
		panic(err)
	}
	return v
}

func mustEID(e EID, err error) EID {
	if err != nil {
		panic(err)
	}
	return e
}

// BuildDiamondChain constructs the diamond-chain graph of Example 11
// (Figure 7): a chain of n diamonds connecting vertex v0 to vertex vn,
// where diamond i joins v(i) to v(i+1) through two length-2 branches.
// All vertices have type V with a single "name" attribute ("v0".."vn"
// for the spine, "ai"/"bi" for branch midpoints) and all edges have
// the directed type E. For every 1 <= k <= n there are exactly 2^k
// paths from v0 to vk, and the non-repeated-vertex, non-repeated-edge
// and all-shortest-paths semantics coincide on this graph.
func BuildDiamondChain(n int) *Graph {
	s := NewSchema()
	if _, err := s.AddVertexType("V", AttrDef{"name", AttrString}); err != nil {
		panic(err)
	}
	if _, err := s.AddEdgeType("E", true); err != nil {
		panic(err)
	}
	g := New(s)
	spine := make([]VID, n+1)
	for i := 0; i <= n; i++ {
		spine[i] = mustVID(g.AddVertex("V", "v"+strconv.Itoa(i), map[string]value.Value{
			"name": value.NewString("v" + strconv.Itoa(i)),
		}))
	}
	for i := 0; i < n; i++ {
		a := mustVID(g.AddVertex("V", "a"+strconv.Itoa(i), map[string]value.Value{
			"name": value.NewString("a" + strconv.Itoa(i)),
		}))
		b := mustVID(g.AddVertex("V", "b"+strconv.Itoa(i), map[string]value.Value{
			"name": value.NewString("b" + strconv.Itoa(i)),
		}))
		mustEID(g.AddEdge("E", spine[i], a, nil))
		mustEID(g.AddEdge("E", a, spine[i+1], nil))
		mustEID(g.AddEdge("E", spine[i], b, nil))
		mustEID(g.AddEdge("E", b, spine[i+1], nil))
	}
	return g
}

// BuildG1 constructs graph G1 of Example 9 (Figure 5): 12 vertices
// named "1".."12", all edges directed with type E. Among the paths
// from vertex 1 to vertex 5 satisfying the DARPE "E>*" there are three
// non-repeated-vertex paths, four non-repeated-edge paths (one goes
// around the 3-7-8-3 cycle), and two shortest paths.
func BuildG1() *Graph {
	return buildNamedDigraph(12, [][2]int{
		{1, 2}, {2, 3}, {3, 4}, {4, 5}, // spine
		{2, 6}, {6, 4}, // short detour
		{2, 9}, {9, 10}, {10, 11}, {11, 12}, {12, 4}, // long detour
		{3, 7}, {7, 8}, {8, 3}, // cycle through 3
	})
}

// BuildG2 constructs graph G2 of Example 10 (Figure 6). The pattern
// ":s -(E>*.F>.E>*)- :t" matches no path from vertex 1 to vertex 4
// under non-repeated-vertex or non-repeated-edge semantics, but
// matches exactly one path (1-2-3-5-6-2-3-4) under all-shortest-paths
// semantics.
func BuildG2() *Graph {
	s := NewSchema()
	if _, err := s.AddVertexType("V", AttrDef{"name", AttrString}); err != nil {
		panic(err)
	}
	if _, err := s.AddEdgeType("E", true); err != nil {
		panic(err)
	}
	if _, err := s.AddEdgeType("F", true); err != nil {
		panic(err)
	}
	g := New(s)
	ids := make([]VID, 7)
	for i := 1; i <= 6; i++ {
		ids[i] = mustVID(g.AddVertex("V", strconv.Itoa(i), map[string]value.Value{
			"name": value.NewString(strconv.Itoa(i)),
		}))
	}
	for _, e := range [][2]int{{1, 2}, {2, 3}, {3, 4}, {3, 5}, {6, 2}} {
		mustEID(g.AddEdge("E", ids[e[0]], ids[e[1]], nil))
	}
	mustEID(g.AddEdge("F", ids[5], ids[6], nil))
	return g
}

// BuildABCCycle constructs the 3-cycle v -A-> u -B-> w -C-> v used in
// Section 6.1's fixed-unique-length discussion. Vertices are named
// "v", "u", "w"; a spare directed edge type D exists in the schema so
// patterns may mention it.
func BuildABCCycle() *Graph {
	s := NewSchema()
	if _, err := s.AddVertexType("V", AttrDef{"name", AttrString}); err != nil {
		panic(err)
	}
	for _, et := range []string{"A", "B", "C", "D"} {
		if _, err := s.AddEdgeType(et, true); err != nil {
			panic(err)
		}
	}
	g := New(s)
	v := mustVID(g.AddVertex("V", "v", map[string]value.Value{"name": value.NewString("v")}))
	u := mustVID(g.AddVertex("V", "u", map[string]value.Value{"name": value.NewString("u")}))
	w := mustVID(g.AddVertex("V", "w", map[string]value.Value{"name": value.NewString("w")}))
	mustEID(g.AddEdge("A", v, u, nil))
	mustEID(g.AddEdge("B", u, w, nil))
	mustEID(g.AddEdge("C", w, v, nil))
	return g
}

func buildNamedDigraph(n int, edges [][2]int) *Graph {
	s := NewSchema()
	if _, err := s.AddVertexType("V", AttrDef{"name", AttrString}); err != nil {
		panic(err)
	}
	if _, err := s.AddEdgeType("E", true); err != nil {
		panic(err)
	}
	g := New(s)
	ids := make([]VID, n+1)
	for i := 1; i <= n; i++ {
		ids[i] = mustVID(g.AddVertex("V", strconv.Itoa(i), map[string]value.Value{
			"name": value.NewString(strconv.Itoa(i)),
		}))
	}
	for _, e := range edges {
		mustEID(g.AddEdge("E", ids[e[0]], ids[e[1]], nil))
	}
	return g
}

// SalesGraphConfig parameterizes BuildSalesGraph.
type SalesGraphConfig struct {
	Customers int
	Products  int
	Sales     int // Bought edges
	Likes     int // Likes edges
	Seed      int64
}

// BuildSalesGraph constructs the SalesGraph of Examples 3-6 (Figures
// 2, 3): Customer and Product vertices, directed Bought edges carrying
// quantity and discount, and directed Likes edges. Roughly half the
// products belong to the "toy" category. Generation is deterministic
// for a given seed.
func BuildSalesGraph(cfg SalesGraphConfig) *Graph {
	s := NewSchema()
	if _, err := s.AddVertexType("Customer", AttrDef{"name", AttrString}); err != nil {
		panic(err)
	}
	if _, err := s.AddVertexType("Product",
		AttrDef{"name", AttrString},
		AttrDef{"category", AttrString},
		AttrDef{"listPrice", AttrFloat},
	); err != nil {
		panic(err)
	}
	if _, err := s.AddEdgeType("Bought", true,
		AttrDef{"quantity", AttrInt},
		AttrDef{"discount", AttrFloat},
	); err != nil {
		panic(err)
	}
	if _, err := s.AddEdgeType("Likes", true); err != nil {
		panic(err)
	}
	g := New(s)
	r := rand.New(rand.NewSource(cfg.Seed))
	custs := make([]VID, cfg.Customers)
	for i := range custs {
		custs[i] = mustVID(g.AddVertex("Customer", fmt.Sprintf("c%d", i), map[string]value.Value{
			"name": value.NewString(fmt.Sprintf("customer-%d", i)),
		}))
	}
	prods := make([]VID, cfg.Products)
	for i := range prods {
		cat := "toy"
		if i%2 == 1 {
			cat = "grocery"
		}
		prods[i] = mustVID(g.AddVertex("Product", fmt.Sprintf("p%d", i), map[string]value.Value{
			"name":      value.NewString(fmt.Sprintf("product-%d", i)),
			"category":  value.NewString(cat),
			"listPrice": value.NewFloat(1 + float64(r.Intn(9900))/100),
		}))
	}
	for i := 0; i < cfg.Sales; i++ {
		c := custs[r.Intn(len(custs))]
		p := prods[r.Intn(len(prods))]
		mustEID(g.AddEdge("Bought", c, p, map[string]value.Value{
			"quantity": value.NewInt(int64(1 + r.Intn(5))),
			"discount": value.NewFloat(float64(r.Intn(30)) / 100),
		}))
	}
	likeSeen := make(map[[2]VID]bool)
	for i := 0; i < cfg.Likes; i++ {
		c := custs[r.Intn(len(custs))]
		p := prods[r.Intn(len(prods))]
		if likeSeen[[2]VID{c, p}] {
			continue
		}
		likeSeen[[2]VID{c, p}] = true
		mustEID(g.AddEdge("Likes", c, p, nil))
	}
	return g
}

// BuildLinkGraph constructs a random Page/LinkTo web graph for the
// PageRank workload of Figure 4: n Page vertices, with outDeg random
// distinct outgoing LinkTo edges per page. Deterministic per seed.
func BuildLinkGraph(n, outDeg int, seed int64) *Graph {
	s := NewSchema()
	if _, err := s.AddVertexType("Page", AttrDef{"name", AttrString}); err != nil {
		panic(err)
	}
	if _, err := s.AddEdgeType("LinkTo", true); err != nil {
		panic(err)
	}
	g := New(s)
	r := rand.New(rand.NewSource(seed))
	pages := make([]VID, n)
	for i := range pages {
		pages[i] = mustVID(g.AddVertex("Page", fmt.Sprintf("page%d", i), map[string]value.Value{
			"name": value.NewString(fmt.Sprintf("page%d", i)),
		}))
	}
	for i, p := range pages {
		seen := map[int]bool{i: true}
		for d := 0; d < outDeg && len(seen) <= n; d++ {
			j := r.Intn(n)
			if seen[j] {
				continue
			}
			seen[j] = true
			mustEID(g.AddEdge("LinkTo", p, pages[j], nil))
		}
	}
	return g
}

// LinkedInConfig parameterizes BuildLinkedInGraph.
type LinkedInConfig struct {
	Persons     int
	Connections int
	Companies   int // company 0 is "ACME"
	Seed        int64
}

// BuildLinkedInGraph constructs the professional network of Example 1
// (Figure 1): Person vertices carrying email and employer, and
// undirected Connected edges carrying a connection date. Person i has
// email "personI@mail.example"; employers are "ACME" plus generated
// names. Deterministic per seed.
func BuildLinkedInGraph(cfg LinkedInConfig) *Graph {
	s := NewSchema()
	if _, err := s.AddVertexType("Person",
		AttrDef{"email", AttrString},
		AttrDef{"worksFor", AttrString},
	); err != nil {
		panic(err)
	}
	if _, err := s.AddEdgeType("Connected", false, AttrDef{"since", AttrDatetime}); err != nil {
		panic(err)
	}
	g := New(s)
	r := rand.New(rand.NewSource(cfg.Seed))
	if cfg.Companies < 2 {
		cfg.Companies = 5
	}
	company := func(i int) string {
		if i == 0 {
			return "ACME"
		}
		return fmt.Sprintf("Corp-%d", i)
	}
	persons := make([]VID, cfg.Persons)
	for i := range persons {
		persons[i] = mustVID(g.AddVertex("Person", fmt.Sprintf("person%d", i), map[string]value.Value{
			"email":    value.NewString(fmt.Sprintf("person%d@mail.example", i)),
			"worksFor": value.NewString(company(r.Intn(cfg.Companies))),
		}))
	}
	seen := map[[2]VID]bool{}
	for i := 0; i < cfg.Connections; i++ {
		a := persons[r.Intn(cfg.Persons)]
		b := persons[r.Intn(cfg.Persons)]
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		if seen[[2]VID{a, b}] {
			continue
		}
		seen[[2]VID{a, b}] = true
		// Connection dates span 2014-2020.
		since := int64(1388534400 + r.Int63n(189302400))
		mustEID(g.AddEdge("Connected", a, b, map[string]value.Value{
			"since": value.NewDatetime(since),
		}))
	}
	return g
}

// BuildRandomChurnGraph grows a BuildRandomMixedGraph-schema graph by
// interleaved vertex and edge inserts under a low fold threshold, so
// its CSRs take every Freeze path: a folded base, a patched CSR over
// post-fold delta edges (some at post-fold vertices), and a private
// build for a snapshot pinned before the last fold. Edges land on a
// few hot vertices, so there are parallel edges, and some are
// directed or undirected self-loops. It returns the head, whose
// snapshot carries post-fold delta edges, and the pinned snapshot.
// Neither has been frozen.
func BuildRandomChurnGraph(seed int64) (head, pinned *Graph) {
	g := BuildRandomMixedGraph(0, 0, seed)
	r := rand.New(rand.NewSource(seed))
	threshold := 8 + r.Intn(8)
	g.SetFoldThreshold(threshold)
	types := []string{"D1", "D2", "U"}
	addVertex := func() {
		name := strconv.Itoa(g.NumVertices())
		mustVID(g.AddVertex("V", name, map[string]value.Value{"name": value.NewString(name)}))
	}
	addEdge := func() {
		n := g.NumVertices()
		hot := min(n, 3) // a few hot vertices collect parallel edges
		a, b := VID(r.Intn(n)), VID(r.Intn(hot))
		switch r.Intn(6) {
		case 0:
			b = a // self-loop
		case 1:
			a, b = b, a
		}
		mustEID(g.AddEdge(types[r.Intn(len(types))], a, b, nil))
	}
	for i := 0; i < 4; i++ {
		addVertex()
	}
	steps := 3*threshold + r.Intn(4*threshold)
	pinAt := threshold + r.Intn(threshold)
	for i := 0; i < steps; i++ {
		if i == pinAt {
			pinned = g.Snapshot()
		}
		if r.Intn(5) == 0 {
			addVertex()
		} else {
			addEdge()
		}
	}
	// A fold point after the pin, then a delta smaller than the base:
	// one post-fold vertex and a few edges, some at that vertex.
	g.Fold()
	g.SetFoldThreshold(-1)
	addVertex()
	for i := 0; i < 1+r.Intn(threshold); i++ {
		addEdge()
	}
	mustEID(g.AddEdge(types[r.Intn(len(types))], VID(g.NumVertices()-1), VID(r.Intn(g.NumVertices())), nil))
	return g, pinned
}

// BuildRandomMixedGraph constructs a random graph mixing directed and
// undirected edge types, used by property tests that compare the
// polynomial path-counting engine against brute-force enumeration.
// Vertex type V; directed edge types D1, D2; undirected edge type U.
func BuildRandomMixedGraph(n, edges int, seed int64) *Graph {
	s := NewSchema()
	if _, err := s.AddVertexType("V", AttrDef{"name", AttrString}); err != nil {
		panic(err)
	}
	if _, err := s.AddEdgeType("D1", true); err != nil {
		panic(err)
	}
	if _, err := s.AddEdgeType("D2", true); err != nil {
		panic(err)
	}
	if _, err := s.AddEdgeType("U", false); err != nil {
		panic(err)
	}
	g := New(s)
	r := rand.New(rand.NewSource(seed))
	ids := make([]VID, n)
	for i := range ids {
		ids[i] = mustVID(g.AddVertex("V", strconv.Itoa(i), map[string]value.Value{
			"name": value.NewString(strconv.Itoa(i)),
		}))
	}
	types := []string{"D1", "D2", "U"}
	for i := 0; i < edges; i++ {
		a := ids[r.Intn(n)]
		b := ids[r.Intn(n)]
		if a == b {
			continue // keep property-test paths loop-free at the edge level
		}
		mustEID(g.AddEdge(types[r.Intn(len(types))], a, b, nil))
	}
	return g
}
