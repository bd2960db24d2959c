package gsqlgo_test

import (
	"fmt"
	"log"

	"gsqlgo"
	"gsqlgo/internal/graph"
)

// ExampleOpen builds a tiny social graph and runs an accumulator query
// over an undirected KNOWS pattern.
func ExampleOpen() {
	schema := gsqlgo.NewSchema()
	if _, err := schema.AddVertexType("Person",
		gsqlgo.AttrDef{Name: "name", Type: gsqlgo.AttrString},
		gsqlgo.AttrDef{Name: "age", Type: gsqlgo.AttrInt}); err != nil {
		log.Fatal(err)
	}
	if _, err := schema.AddEdgeType("Knows", false); err != nil { // undirected
		log.Fatal(err)
	}
	g := gsqlgo.NewGraph(schema)
	ann, _ := g.AddVertex("Person", "ann", map[string]gsqlgo.Value{
		"name": gsqlgo.Str("Ann"), "age": gsqlgo.Int(30),
	})
	bob, _ := g.AddVertex("Person", "bob", map[string]gsqlgo.Value{
		"name": gsqlgo.Str("Bob"), "age": gsqlgo.Int(40),
	})
	cay, _ := g.AddVertex("Person", "cay", map[string]gsqlgo.Value{
		"name": gsqlgo.Str("Cay"), "age": gsqlgo.Int(50),
	})
	if _, err := g.AddEdge("Knows", ann, bob, nil); err != nil {
		log.Fatal(err)
	}
	if _, err := g.AddEdge("Knows", bob, cay, nil); err != nil {
		log.Fatal(err)
	}

	db := gsqlgo.Open(g, gsqlgo.Options{})
	if err := db.Install(`
CREATE QUERY FriendAges(vertex<Person> p) {
  SumAccum<int> @@friends;
  AvgAccum<float> @@avgAge;
  S = SELECT f
      FROM Person:p -(Knows)- Person:f
      ACCUM @@friends += 1, @@avgAge += f.age;
  PRINT @@friends, @@avgAge;
}`); err != nil {
		log.Fatal(err)
	}
	res, err := db.Run("FriendAges", map[string]gsqlgo.Value{"p": gsqlgo.Vertex(int64(bob))})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("friends:", res.Printed[0].Rows[0][0])
	fmt.Println("avg age:", res.Printed[1].Rows[0][0])
	// Output:
	// friends: 2
	// avg age: 40
}

// ExampleDB_Run demonstrates all-shortest-paths path counting on the
// paper's diamond-chain graph (Example 11): 2^8 = 256 shortest paths
// counted — not materialized — in polynomial time.
func ExampleDB_Run() {
	g := graph.BuildDiamondChain(8)
	db := gsqlgo.Open(g, gsqlgo.Options{Semantics: gsqlgo.AllShortestPaths})
	if err := db.Install(`
CREATE QUERY CountPaths(string fromName, string toName) {
  SumAccum<int> @paths;
  R = SELECT t
      FROM V:s -(E>*)- V:t
      WHERE s.name == fromName AND t.name == toName
      ACCUM t.@paths += 1;
  PRINT R[R.name, R.@paths];
}`); err != nil {
		log.Fatal(err)
	}
	res, err := db.Run("CountPaths", map[string]gsqlgo.Value{
		"fromName": gsqlgo.Str("v0"),
		"toName":   gsqlgo.Str("v8"),
	})
	if err != nil {
		log.Fatal(err)
	}
	row := res.Printed[0].Rows[0]
	fmt.Printf("%s is reached by %s shortest paths\n", row[0], row[1])
	// Output:
	// v8 is reached by 256 shortest paths
}

// ExampleDB_Explain shows the per-hop evaluation plan of an installed
// query.
func ExampleDB_Explain() {
	g := graph.BuildDiamondChain(2)
	db := gsqlgo.Open(g, gsqlgo.Options{})
	if err := db.Install(`
CREATE QUERY Reach(string fromName) {
  SumAccum<int> @n;
  R = SELECT t FROM V:s -(E>*)- V:t WHERE s.name == fromName ACCUM t.@n += 1;
}`); err != nil {
		log.Fatal(err)
	}
	plan, err := db.Explain("Reach")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(plan)
	// Output:
	// QUERY Reach(fromName)  [path semantics: all-shortest-paths]
	//   DECL @n SumAccum<int> (vertex)
	//   R = SELECT
	//     seed V as "s"
	//     hop -(E>*)- V:t  [polynomial path counting (Theorem 6.1), no materialization; DFA 2 states; count cache on]
	//     WHERE filter
	//     ACCUM 1 statement(s)  [compiled kernel (1 fast / 0 boxed target(s), 1/1 unboxed statement(s), 0 resolved attr offset(s)), snapshot map/reduce, parallel, multiplicity shortcut on]
}
