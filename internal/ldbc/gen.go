// Package ldbc provides a deterministic synthetic social-network
// generator modelled on the LDBC Social Network Benchmark (SNB)
// schema the paper's large-scale experiments use (Section 7.1 and
// Appendix B), plus the adapted IC query family and the Appendix B
// multi-grouping workload.
//
// The paper ran the official SNB generator at scale factors 1–1000
// (1 GB–1 TB) on EC2/Azure clusters; this package substitutes a
// seeded generator with the same schema shape (persons with cities,
// countries, companies, forums, tags, posts, comments; KNOWS is
// undirected as in SNB) at laptop scale. Scale factor 1 ≈ 1000
// persons. The substitution preserves what the experiments measure:
// the relative growth of all-shortest-paths counting vs
// non-repeated-edge enumeration with KNOWS hop count, and the relative
// cost of accumulator-based vs GROUPING-SET-style multi-aggregation.
package ldbc

import (
	"fmt"
	"math/rand"

	"gsqlgo/internal/graph"
	"gsqlgo/internal/value"
)

// Config parameterizes the generator.
type Config struct {
	// SF is the scale factor; persons ≈ 1000·SF.
	SF float64
	// Seed makes generation deterministic.
	Seed int64
	// AvgKnowsDegree sets the mean KNOWS degree (default 24 — enough
	// that bounded-hop enumeration shows its exponential growth).
	AvgKnowsDegree int
}

func (c Config) persons() int {
	n := int(1000 * c.SF)
	if n < 50 {
		n = 50
	}
	return n
}

// Persons reports how many Person vertices Generate will create for
// this config — keys are "person0" … "person{Persons()-1}". Exported so
// workload generators can address the generated key space without
// materializing a graph (see benchmark/README.md).
func (c Config) Persons() int { return c.persons() }

// Derived population sizes, shared by Generate and the mutation-stream
// generator (mutations.go) so streamed records only ever reference
// vertices Generate actually created. Keys follow the same "%s%d"
// convention: "country0", "tag12", "comment99", …
const (
	NumCountries = 12
	NumCities    = 40
	NumCompanies = 60
	NumTags      = 80
)

func (c Config) posts() int    { return c.persons() * 5 }
func (c Config) comments() int { return c.persons() * 10 }

func (c Config) forums() int {
	n := c.persons() / 10
	if n < 10 {
		n = 10
	}
	return n
}

func (c Config) knowsDegree() int {
	if c.AvgKnowsDegree > 0 {
		return c.AvgKnowsDegree
	}
	return 24
}

var browsers = []string{"Chrome", "Firefox", "Safari", "InternetExplorer", "Opera"}

// epoch2009 .. epoch2013 bound generated timestamps.
const (
	epoch2009 = 1230768000 // 2009-01-01
	epoch2013 = 1356998400 // 2013-01-01
	epoch1950 = -631152000 // 1950-01-01 (birthdays)
	epoch2000 = 946684800  // 2000-01-01
)

// Schema declares the SNB-like schema.
func Schema() *graph.Schema {
	s := graph.NewSchema()
	mustVT := func(name string, attrs ...graph.AttrDef) {
		if _, err := s.AddVertexType(name, attrs...); err != nil {
			panic(err)
		}
	}
	mustET := func(name string, directed bool, attrs ...graph.AttrDef) {
		if _, err := s.AddEdgeType(name, directed, attrs...); err != nil {
			panic(err)
		}
	}
	mustVT("Person",
		graph.AttrDef{Name: "firstName", Type: graph.AttrString},
		graph.AttrDef{Name: "lastName", Type: graph.AttrString},
		graph.AttrDef{Name: "gender", Type: graph.AttrString},
		graph.AttrDef{Name: "birthday", Type: graph.AttrDatetime},
		graph.AttrDef{Name: "browserUsed", Type: graph.AttrString},
	)
	mustVT("City", graph.AttrDef{Name: "name", Type: graph.AttrString})
	mustVT("Country", graph.AttrDef{Name: "name", Type: graph.AttrString})
	mustVT("Company", graph.AttrDef{Name: "name", Type: graph.AttrString})
	mustVT("Tag", graph.AttrDef{Name: "name", Type: graph.AttrString})
	mustVT("Forum",
		graph.AttrDef{Name: "title", Type: graph.AttrString},
		graph.AttrDef{Name: "creationDate", Type: graph.AttrDatetime},
	)
	mustVT("Post",
		graph.AttrDef{Name: "creationDate", Type: graph.AttrDatetime},
		graph.AttrDef{Name: "length", Type: graph.AttrInt},
		graph.AttrDef{Name: "browserUsed", Type: graph.AttrString},
	)
	mustVT("Comment",
		graph.AttrDef{Name: "creationDate", Type: graph.AttrDatetime},
		graph.AttrDef{Name: "length", Type: graph.AttrInt},
		graph.AttrDef{Name: "browserUsed", Type: graph.AttrString},
	)

	mustET("Knows", false, graph.AttrDef{Name: "creationDate", Type: graph.AttrDatetime}) // undirected, as in SNB
	mustET("PersonLocatedIn", true)
	mustET("PartOf", true)    // City -> Country
	mustET("CompanyIn", true) // Company -> Country
	mustET("WorkAt", true, graph.AttrDef{Name: "workFrom", Type: graph.AttrInt})
	mustET("HasMember", true, graph.AttrDef{Name: "joinDate", Type: graph.AttrDatetime}) // Forum -> Person
	mustET("PostHasCreator", true)                                                       // Post -> Person
	mustET("CommentHasCreator", true)                                                    // Comment -> Person
	mustET("PostHasTag", true)                                                           // Post -> Tag
	mustET("Likes", true, graph.AttrDef{Name: "creationDate", Type: graph.AttrDatetime}) // Person -> Comment
	mustET("CommentLocatedIn", true)                                                     // Comment -> Country
	return s
}

// Generate builds a deterministic SNB-like graph.
func Generate(cfg Config) *graph.Graph {
	g := graph.New(Schema())
	r := rand.New(rand.NewSource(cfg.Seed))
	nPersons := cfg.persons()
	nCountries := NumCountries
	nCities := NumCities
	nCompanies := NumCompanies
	nTags := NumTags
	nForums := cfg.forums()
	nPosts := cfg.posts()
	nComments := cfg.comments()

	addV := func(typ, key string, attrs map[string]value.Value) graph.VID {
		v, err := g.AddVertex(typ, key, attrs)
		if err != nil {
			panic(err)
		}
		return v
	}
	addE := func(typ string, s, d graph.VID, attrs map[string]value.Value) {
		if _, err := g.AddEdge(typ, s, d, attrs); err != nil {
			panic(err)
		}
	}
	dtBetween := func(lo, hi int64) value.Value {
		return value.NewDatetime(lo + r.Int63n(hi-lo))
	}

	countries := make([]graph.VID, nCountries)
	for i := range countries {
		countries[i] = addV("Country", fmt.Sprintf("country%d", i), map[string]value.Value{
			"name": value.NewString(fmt.Sprintf("Country-%d", i)),
		})
	}
	cities := make([]graph.VID, nCities)
	for i := range cities {
		cities[i] = addV("City", fmt.Sprintf("city%d", i), map[string]value.Value{
			"name": value.NewString(fmt.Sprintf("City-%d", i)),
		})
		addE("PartOf", cities[i], countries[i%nCountries], nil)
	}
	companies := make([]graph.VID, nCompanies)
	for i := range companies {
		companies[i] = addV("Company", fmt.Sprintf("company%d", i), map[string]value.Value{
			"name": value.NewString(fmt.Sprintf("Company-%d", i)),
		})
		addE("CompanyIn", companies[i], countries[i%nCountries], nil)
	}
	tags := make([]graph.VID, nTags)
	for i := range tags {
		tags[i] = addV("Tag", fmt.Sprintf("tag%d", i), map[string]value.Value{
			"name": value.NewString(fmt.Sprintf("Tag-%d", i)),
		})
	}

	persons := make([]graph.VID, nPersons)
	for i := range persons {
		gender := "male"
		if r.Intn(2) == 0 {
			gender = "female"
		}
		persons[i] = addV("Person", fmt.Sprintf("person%d", i), map[string]value.Value{
			"firstName":   value.NewString(fmt.Sprintf("First%d", i)),
			"lastName":    value.NewString(fmt.Sprintf("Last%d", i%997)),
			"gender":      value.NewString(gender),
			"birthday":    dtBetween(epoch1950, epoch2000),
			"browserUsed": value.NewString(browsers[r.Intn(len(browsers))]),
		})
		addE("PersonLocatedIn", persons[i], cities[r.Intn(nCities)], nil)
		addE("WorkAt", persons[i], companies[r.Intn(nCompanies)], map[string]value.Value{
			"workFrom": value.NewInt(int64(1990 + r.Intn(23))),
		})
	}

	// KNOWS with a skewed degree distribution (squared-uniform pick
	// biases toward low ids, giving hubs like a real social graph).
	skew := func() graph.VID {
		f := r.Float64()
		return persons[int(f*f*float64(nPersons))]
	}
	knowsSeen := map[[2]graph.VID]bool{}
	nKnows := nPersons * cfg.knowsDegree() / 2
	for i := 0; i < nKnows; i++ {
		a, b := skew(), persons[r.Intn(nPersons)]
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		if knowsSeen[[2]graph.VID{a, b}] {
			continue
		}
		knowsSeen[[2]graph.VID{a, b}] = true
		addE("Knows", a, b, map[string]value.Value{"creationDate": dtBetween(epoch2009, epoch2013)})
	}

	forums := make([]graph.VID, nForums)
	for i := range forums {
		forums[i] = addV("Forum", fmt.Sprintf("forum%d", i), map[string]value.Value{
			"title":        value.NewString(fmt.Sprintf("Forum-%d", i)),
			"creationDate": dtBetween(epoch2009, epoch2013),
		})
	}
	for _, p := range persons {
		for j := 0; j < 4; j++ {
			addE("HasMember", forums[r.Intn(nForums)], p, map[string]value.Value{
				"joinDate": dtBetween(epoch2009, epoch2013),
			})
		}
	}

	posts := make([]graph.VID, nPosts)
	for i := range posts {
		posts[i] = addV("Post", fmt.Sprintf("post%d", i), map[string]value.Value{
			"creationDate": dtBetween(epoch2009, epoch2013),
			"length":       value.NewInt(int64(1 + r.Intn(500))),
			"browserUsed":  value.NewString(browsers[r.Intn(len(browsers))]),
		})
		addE("PostHasCreator", posts[i], persons[r.Intn(nPersons)], nil)
		seen := map[int]bool{}
		for j := 0; j < 3; j++ {
			ti := r.Intn(nTags)
			if seen[ti] {
				continue
			}
			seen[ti] = true
			addE("PostHasTag", posts[i], tags[ti], nil)
		}
	}

	comments := make([]graph.VID, nComments)
	for i := range comments {
		comments[i] = addV("Comment", fmt.Sprintf("comment%d", i), map[string]value.Value{
			"creationDate": dtBetween(epoch2009, epoch2013),
			"length":       value.NewInt(int64(1 + r.Intn(500))),
			"browserUsed":  value.NewString(browsers[r.Intn(len(browsers))]),
		})
		addE("CommentHasCreator", comments[i], persons[r.Intn(nPersons)], nil)
		addE("CommentLocatedIn", comments[i], countries[r.Intn(nCountries)], nil)
	}

	nLikes := nPersons * 20
	likeSeen := map[[2]graph.VID]bool{}
	for i := 0; i < nLikes; i++ {
		p := persons[r.Intn(nPersons)]
		m := comments[r.Intn(nComments)]
		if likeSeen[[2]graph.VID{p, m}] {
			continue
		}
		likeSeen[[2]graph.VID{p, m}] = true
		addE("Likes", p, m, map[string]value.Value{"creationDate": dtBetween(epoch2009, epoch2013)})
	}
	return g
}
