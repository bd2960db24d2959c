package graph

import (
	"strings"
	"testing"

	"gsqlgo/internal/value"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s := NewSchema()
	if _, err := s.AddVertexType("Person", AttrDef{"name", AttrString}, AttrDef{"age", AttrInt}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddVertexType("City", AttrDef{"name", AttrString}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddEdgeType("Knows", false, AttrDef{"since", AttrDatetime}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddEdgeType("LivesIn", true); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSchemaBasics(t *testing.T) {
	s := testSchema(t)
	if s.VertexType("Person") == nil || s.VertexType("Nope") != nil {
		t.Error("VertexType lookup wrong")
	}
	if s.EdgeType("Knows") == nil || s.EdgeType("Knows").Directed {
		t.Error("Knows must exist and be undirected")
	}
	if !s.EdgeType("LivesIn").Directed {
		t.Error("LivesIn must be directed")
	}
	if _, err := s.AddVertexType("Person"); err == nil {
		t.Error("duplicate vertex type must error")
	}
	if _, err := s.AddEdgeType("Knows", true); err == nil {
		t.Error("duplicate edge type must error")
	}
	if got := s.VertexType("Person").AttrIndex("age"); got != 1 {
		t.Errorf("AttrIndex(age) = %d, want 1", got)
	}
	if got := s.VertexType("Person").AttrIndex("zip"); got != -1 {
		t.Errorf("AttrIndex(zip) = %d, want -1", got)
	}
}

func TestVertexAndEdgeCRUD(t *testing.T) {
	g := New(testSchema(t))
	alice, err := g.AddVertex("Person", "alice", map[string]value.Value{
		"name": value.NewString("Alice"), "age": value.NewInt(31),
	})
	if err != nil {
		t.Fatal(err)
	}
	bob, err := g.AddVertex("Person", "bob", map[string]value.Value{"name": value.NewString("Bob")})
	if err != nil {
		t.Fatal(err)
	}
	nyc, err := g.AddVertex("City", "nyc", map[string]value.Value{"name": value.NewString("NYC")})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 {
		t.Fatalf("NumVertices = %d, want 3", g.NumVertices())
	}
	// Defaulted attribute.
	if v, ok := g.VertexAttr(bob, "age"); !ok || v.Int() != 0 {
		t.Errorf("bob.age default: %v %v", v, ok)
	}
	// Errors.
	if _, err := g.AddVertex("Nope", "x", nil); err == nil {
		t.Error("unknown vertex type must error")
	}
	if _, err := g.AddVertex("Person", "alice", nil); err == nil {
		t.Error("duplicate key must error")
	}
	if _, err := g.AddVertex("Person", "x", map[string]value.Value{"zip": value.NewInt(1)}); err == nil {
		t.Error("unknown attribute must error")
	}
	if _, err := g.AddVertex("Person", "y", map[string]value.Value{"age": value.NewString("old")}); err == nil {
		t.Error("mistyped attribute must error")
	}

	if _, err := g.AddEdge("Knows", alice, bob, map[string]value.Value{"since": value.NewDatetime(1000)}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge("LivesIn", alice, nyc, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge("LivesIn", bob, nyc, nil); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	if _, err := g.AddEdge("Nope", alice, bob, nil); err == nil {
		t.Error("unknown edge type must error")
	}
	if _, err := g.AddEdge("Knows", alice, VID(99), nil); err == nil {
		t.Error("out-of-range endpoint must error")
	}

	// Undirected edge appears in both adjacency lists with DirUndir.
	foundAtAlice, foundAtBob := false, false
	for _, h := range g.Neighbors(alice) {
		if h.Dir == DirUndir && h.To == bob {
			foundAtAlice = true
		}
	}
	for _, h := range g.Neighbors(bob) {
		if h.Dir == DirUndir && h.To == alice {
			foundAtBob = true
		}
	}
	if !foundAtAlice || !foundAtBob {
		t.Error("undirected edge must be visible from both endpoints")
	}

	// Directed edge: DirOut at source, DirIn at target.
	outOK, inOK := false, false
	for _, h := range g.Neighbors(alice) {
		if h.Dir == DirOut && h.To == nyc {
			outOK = true
		}
	}
	for _, h := range g.Neighbors(nyc) {
		if h.Dir == DirIn && h.To == alice {
			inOK = true
		}
	}
	if !outOK || !inOK {
		t.Error("directed edge direction bookkeeping wrong")
	}

	// Degrees: alice has 1 undirected Knows + 1 outgoing LivesIn.
	if d := g.OutDegree(alice); d != 2 {
		t.Errorf("OutDegree(alice) = %d, want 2", d)
	}
	c := g.Freeze()
	if d := c.OutDegree(alice); d != 2 {
		t.Errorf("CSR OutDegree(alice) = %d, want 2", d)
	}
	if d := c.OutDegreeOfType(alice, g.Schema.EdgeType("LivesIn").ID); d != 1 {
		t.Errorf("CSR OutDegreeOfType(alice, LivesIn) = %d, want 1", d)
	}
	if d := c.OutDegreeOfType(alice, g.Schema.EdgeType("Knows").ID); d != 1 {
		t.Errorf("CSR OutDegreeOfType(alice, Knows) = %d, want 1", d)
	}
	if d := c.OutDegreeOfType(nyc, g.Schema.EdgeType("LivesIn").ID); d != 0 {
		t.Errorf("CSR OutDegreeOfType(nyc, LivesIn) = %d, want 0 (only incoming)", d)
	}
	if d := c.Degree(nyc); d != 2 {
		t.Errorf("CSR Degree(nyc) = %d, want 2", d)
	}
	if d := g.OutDegree(nyc); d != 0 {
		t.Errorf("OutDegree(nyc) = %d, want 0 (only incoming)", d)
	}
	if d := g.Degree(nyc); d != 2 {
		t.Errorf("Degree(nyc) = %d, want 2", d)
	}

	// Lookup and attributes.
	if id, ok := g.VertexByKey("Person", "alice"); !ok || id != alice {
		t.Error("VertexByKey failed")
	}
	if _, ok := g.VertexByKey("Person", "zed"); ok {
		t.Error("VertexByKey must miss for unknown key")
	}
	if g.VertexKey(alice) != "alice" || g.VertexTypeOf(alice).Name != "Person" {
		t.Error("vertex metadata wrong")
	}
	if vs := g.VerticesOfType("Person"); len(vs) != 2 {
		t.Errorf("VerticesOfType(Person) = %d, want 2", len(vs))
	}
	if err := g.SetVertexAttr(bob, "age", value.NewInt(44)); err != nil {
		t.Fatal(err)
	}
	if v, _ := g.VertexAttr(bob, "age"); v.Int() != 44 {
		t.Error("SetVertexAttr not visible")
	}
	if err := g.SetVertexAttr(bob, "zip", value.NewInt(1)); err == nil {
		t.Error("SetVertexAttr unknown attr must error")
	}
}

func TestEdgeAttributesAndEndpoints(t *testing.T) {
	g := New(testSchema(t))
	a, _ := g.AddVertex("Person", "a", nil)
	b, _ := g.AddVertex("Person", "b", nil)
	e, err := g.AddEdge("Knows", a, b, map[string]value.Value{"since": value.NewDatetime(77)})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := g.EdgeAttr(e, "since"); !ok || v.Datetime() != 77 {
		t.Errorf("EdgeAttr(since) = %v %v", v, ok)
	}
	if _, ok := g.EdgeAttr(e, "nope"); ok {
		t.Error("EdgeAttr must miss for unknown attr")
	}
	s, d := g.EdgeEndpoints(e)
	if s != a || d != b {
		t.Error("EdgeEndpoints wrong")
	}
	if g.EdgeTypeOf(e).Name != "Knows" {
		t.Error("EdgeTypeOf wrong")
	}
}

func TestIntWideningIntoFloatAndDatetime(t *testing.T) {
	s := NewSchema()
	if _, err := s.AddVertexType("T", AttrDef{"f", AttrFloat}, AttrDef{"d", AttrDatetime}); err != nil {
		t.Fatal(err)
	}
	g := New(s)
	v, err := g.AddVertex("T", "x", map[string]value.Value{"f": value.NewInt(3), "d": value.NewInt(5)})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := g.VertexAttr(v, "f"); got.Kind() != value.KindFloat || got.Float() != 3 {
		t.Errorf("int->float widening: %v", got)
	}
	if got, _ := g.VertexAttr(v, "d"); got.Kind() != value.KindDatetime || got.Datetime() != 5 {
		t.Errorf("int->datetime widening: %v", got)
	}
}

func TestBuildDiamondChain(t *testing.T) {
	g := BuildDiamondChain(30)
	if g.NumVertices() != 91 {
		t.Errorf("diamond chain vertices = %d, want 91 (paper)", g.NumVertices())
	}
	if g.NumEdges() != 120 {
		t.Errorf("diamond chain edges = %d, want 120 (paper)", g.NumEdges())
	}
	if _, ok := g.VertexByKey("V", "v0"); !ok {
		t.Error("v0 missing")
	}
	if _, ok := g.VertexByKey("V", "v30"); !ok {
		t.Error("v30 missing")
	}
}

func TestBuildG1G2Shapes(t *testing.T) {
	g1 := BuildG1()
	if g1.NumVertices() != 12 || g1.NumEdges() != 14 {
		t.Errorf("G1 shape: %dV %dE", g1.NumVertices(), g1.NumEdges())
	}
	g2 := BuildG2()
	if g2.NumVertices() != 6 || g2.NumEdges() != 6 {
		t.Errorf("G2 shape: %dV %dE", g2.NumVertices(), g2.NumEdges())
	}
	cyc := BuildABCCycle()
	if cyc.NumVertices() != 3 || cyc.NumEdges() != 3 {
		t.Errorf("ABC cycle shape: %dV %dE", cyc.NumVertices(), cyc.NumEdges())
	}
}

func TestBuildSalesGraphDeterministic(t *testing.T) {
	cfg := SalesGraphConfig{Customers: 20, Products: 10, Sales: 50, Likes: 60, Seed: 7}
	g1 := BuildSalesGraph(cfg)
	g2 := BuildSalesGraph(cfg)
	if g1.NumVertices() != g2.NumVertices() || g1.NumEdges() != g2.NumEdges() {
		t.Error("SalesGraph generation must be deterministic per seed")
	}
	if len(g1.VerticesOfType("Customer")) != 20 || len(g1.VerticesOfType("Product")) != 10 {
		t.Error("SalesGraph cardinalities wrong")
	}
}

func TestBuildLinkGraph(t *testing.T) {
	g := BuildLinkGraph(50, 4, 1)
	if len(g.VerticesOfType("Page")) != 50 {
		t.Error("LinkGraph page count wrong")
	}
	if g.NumEdges() == 0 {
		t.Error("LinkGraph must have edges")
	}
	// No self-links by construction.
	for e := EID(0); int(e) < g.NumEdges(); e++ {
		s, d := g.EdgeEndpoints(e)
		if s == d {
			t.Fatalf("self-link at edge %d", e)
		}
	}
}

func TestLoadCSV(t *testing.T) {
	g := New(testSchema(t))
	nv, err := g.LoadVerticesCSV("Person", strings.NewReader("key,name,age\np1,Ann,30\np2,Ben,40\n"))
	if err != nil || nv != 2 {
		t.Fatalf("LoadVerticesCSV: %d %v", nv, err)
	}
	if _, err := g.LoadVerticesCSV("City", strings.NewReader("key,name\nnyc,NYC\n")); err != nil {
		t.Fatal(err)
	}
	ne, err := g.LoadEdgesCSV("Knows", strings.NewReader("src:Person,dst:Person,since\np1,p2,2016-01-02\n"))
	if err != nil || ne != 1 {
		t.Fatalf("LoadEdgesCSV: %d %v", ne, err)
	}
	ne, err = g.LoadEdgesCSV("LivesIn", strings.NewReader("src:Person,dst:City\np1,nyc\np2,nyc\n"))
	if err != nil || ne != 2 {
		t.Fatalf("LoadEdgesCSV LivesIn: %d %v", ne, err)
	}
	p1, _ := g.VertexByKey("Person", "p1")
	if v, _ := g.VertexAttr(p1, "age"); v.Int() != 30 {
		t.Error("CSV-loaded attribute wrong")
	}
	// since attribute parsed as a date
	for _, h := range g.Neighbors(p1) {
		if g.EdgeTypeOf(h.Edge).Name == "Knows" {
			v, _ := g.EdgeAttr(h.Edge, "since")
			if v.Kind() != value.KindDatetime || v.Datetime() == 0 {
				t.Errorf("since attr: %v", v)
			}
		}
	}
	// Error paths.
	if _, err := g.LoadVerticesCSV("Nope", strings.NewReader("key\n")); err == nil {
		t.Error("unknown type must error")
	}
	if _, err := g.LoadVerticesCSV("Person", strings.NewReader("name\nx\n")); err == nil {
		t.Error("missing key column must error")
	}
	if _, err := g.LoadVerticesCSV("Person", strings.NewReader("key,zip\nx,1\n")); err == nil {
		t.Error("unknown column must error")
	}
	if _, err := g.LoadEdgesCSV("Knows", strings.NewReader("src:Person,dst:Person\nzed,p1\n")); err == nil {
		t.Error("unknown endpoint key must error")
	}
	if _, err := g.LoadEdgesCSV("Knows", strings.NewReader("whatever\nx\n")); err == nil {
		t.Error("bad edge header must error")
	}
}

func TestParseDatetime(t *testing.T) {
	for _, ok := range []string{"2020-06-14", "2020-06-14 12:00:01", "2020-06-14T12:00:01"} {
		if _, err := ParseDatetime(ok); err != nil {
			t.Errorf("ParseDatetime(%q): %v", ok, err)
		}
	}
	if _, err := ParseDatetime("June 14"); err == nil {
		t.Error("bad datetime must error")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustDatetime must panic on bad input")
		}
	}()
	MustDatetime("bogus")
}

// TestEpochTracksTopologyMutation pins the invalidation contract the
// engine-level count cache relies on: the epoch advances on every
// AddVertex/AddEdge (the events that clear the frozen CSR) and on
// nothing else — attribute updates leave it, and topology-derived
// caches stamped with it, alone.
func TestEpochTracksTopologyMutation(t *testing.T) {
	s := NewSchema()
	if _, err := s.AddVertexType("V", AttrDef{Name: "name", Type: AttrString}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddEdgeType("E", true); err != nil {
		t.Fatal(err)
	}
	g := New(s)
	e0 := g.Epoch()
	a, err := g.AddVertex("V", "a", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.AddVertex("V", "b", nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.Epoch() != e0+2 {
		t.Fatalf("epoch after 2 AddVertex: %d, want %d", g.Epoch(), e0+2)
	}
	if _, err := g.AddEdge("E", a, b, nil); err != nil {
		t.Fatal(err)
	}
	if g.Epoch() != e0+3 {
		t.Fatalf("epoch after AddEdge: %d, want %d", g.Epoch(), e0+3)
	}
	// Attribute updates are not topology: epoch (like the frozen CSR)
	// is untouched.
	g.Freeze()
	before := g.Epoch()
	if err := g.SetVertexAttr(a, "name", value.NewString("renamed")); err != nil {
		t.Fatal(err)
	}
	if g.Epoch() != before {
		t.Errorf("SetVertexAttr moved the epoch %d -> %d", before, g.Epoch())
	}
}
