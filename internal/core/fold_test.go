package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/matrix"
	"repro/internal/rdf"
	"repro/internal/term"
)

const absentSort = "http://ex/NoSuchSort"

// graphView is the oracle the fold must reproduce: the whole graph,
// its sort subgraph Dt, then matrix.FromGraph. ok is false when Dt is
// empty, where the loaders must report an unknown sort.
func graphView(g *rdf.Graph, sortURI string) (enc []byte, ok bool) {
	if sortURI != "" {
		if g = g.SortSubgraph(sortURI); g.Len() == 0 {
			return nil, false
		}
	}
	return matrix.FromGraph(g, matrix.Options{KeepSubjects: true}).AppendBinary(nil), true
}

// checkLoad compares a loaded dataset with the oracle's encoding.
func checkLoad(t *testing.T, what, sortURI string, want []byte, ok bool, d *Dataset, err error) {
	t.Helper()
	switch {
	case !ok && err == nil:
		t.Fatalf("%s sort %q: empty sort accepted", what, sortURI)
	case !ok:
		return
	case err != nil:
		t.Fatalf("%s sort %q: %v", what, sortURI, err)
	case !bytes.Equal(d.View.AppendBinary(nil), want):
		t.Fatalf("%s sort %q: view differs from the graph path\n  fold:  %v\n  graph: %v", what, sortURI, d.View, mustDecode(t, want))
	}
}

func mustDecode(t *testing.T, enc []byte) *matrix.View {
	v, err := matrix.DecodeView(enc)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// checkNTriplesFold loads an N-Triples dump through ReadNTriples and
// through core.FromGraph on the parsed graph, whole and per sort, and
// requires both to encode byte-identically to the graph oracle.
func checkNTriplesFold(t *testing.T, what string, nt []byte, sorts ...string) {
	t.Helper()
	g, err := rdf.ParseNTriples(bytes.NewReader(nt))
	if err != nil {
		t.Fatal(err)
	}
	for _, sortURI := range append([]string{"", absentSort}, sorts...) {
		want, ok := graphView(g, sortURI)
		d, err := ReadNTriples(bytes.NewReader(nt), what, sortURI)
		checkLoad(t, what+" (stream)", sortURI, want, ok, d, err)
		d, err = FromGraph(g, what, sortURI)
		checkLoad(t, what+" (graph)", sortURI, want, ok, d, err)
	}
}

func TestFoldMatchesGraphOnGeneratedDumps(t *testing.T) {
	for _, c := range []struct {
		name    string
		g       *rdf.Graph
		sortURI string
	}{
		{"persons 1%", datagen.DBpediaPersonsGraph(0.01), datagen.DBpediaPersonsSortURI},
		{"wordnet 1%", datagen.WordNetNounsGraph(0.01), datagen.WordNetNounsSortURI},
	} {
		var buf bytes.Buffer
		if err := rdf.WriteNTriples(&buf, c.g); err != nil {
			t.Fatal(err)
		}
		checkNTriplesFold(t, c.name, buf.Bytes(), c.sortURI)
	}
}

// randomDump writes seeded N-Triples with what the fold must see
// through: duplicate triples, distinct and escaped literal objects,
// blank nodes, subjects that have only rdf:type, subjects with several
// types, rdf:type triples whose object is a literal spelling a sort,
// comments and blank lines, all in shuffled line order.
func randomDump(rng *rand.Rand) []byte {
	const typ = "<" + rdf.TypeURI + ">"
	nSubj, nPred := 5+rng.Intn(40), 1+rng.Intn(8)
	res := func(i int) string {
		if i%5 == 4 {
			return fmt.Sprintf("_:b%d", i)
		}
		return fmt.Sprintf("<http://ex/s%d>", i)
	}
	var lines []string
	for i := 0; i < nSubj; i++ {
		s := res(i)
		nTypes := rng.Intn(3)
		for j := 0; j < nTypes; j++ {
			sortURI := fmt.Sprintf("http://ex/T%d", rng.Intn(3))
			if rng.Intn(6) == 0 {
				lines = append(lines, fmt.Sprintf("%s %s %q .", s, typ, sortURI))
			} else {
				lines = append(lines, fmt.Sprintf("%s %s <%s> .", s, typ, sortURI))
			}
		}
		if nTypes > 0 && rng.Intn(4) == 0 {
			continue // this subject has only rdf:type
		}
		for j := rng.Intn(6); j >= 0; j-- {
			var o string
			switch rng.Intn(5) {
			case 0:
				o = fmt.Sprintf("\"v%d\"", rng.Int63())
			case 1:
				o = `"tab\tq\"éé"@en`
			case 2:
				o = res(rng.Intn(nSubj))
			case 3:
				o = fmt.Sprintf("\"%d\"^^<http://www.w3.org/2001/XMLSchema#int>", rng.Intn(3))
			default:
				o = `"http://ex/T0"`
			}
			line := fmt.Sprintf("%s <http://ex/p%d> %s .", s, rng.Intn(nPred), o)
			lines = append(lines, line)
			if rng.Intn(4) == 0 {
				lines = append(lines, line)
			}
		}
	}
	lines = append(lines, "# a comment", "", "   ")
	rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
	return []byte(strings.Join(lines, "\n") + "\n")
}

func TestFoldMatchesGraphOnRandomDumps(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 60; trial++ {
		checkNTriplesFold(t, fmt.Sprintf("random #%d", trial), randomDump(rng),
			"http://ex/T0", "http://ex/T1", "http://ex/T2")
	}
}

func TestFoldMatchesGraphOnTurtle(t *testing.T) {
	src := `@prefix ex: <http://ex/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
# persons and one company; bob repeats a triple, carol has only types
ex:alice a ex:Person ; ex:name "Alice"@en ; ex:age 30 ; ex:knows ex:bob, _:x .
ex:bob a ex:Person, ex:Agent ; ex:name "Bob" ; ex:name "Bob" ; ex:born "1980"^^xsd:gYear .
ex:carol a ex:Person, ex:Agent .
_:x ex:name """Anon
ymous""" ; a ex:Agent .
ex:acme a ex:Company ; ex:name "Acme" ; ex:public true .
ex:dave a "http://ex/Person" ; ex:name "Dave" .
`
	path := filepath.Join(t.TempDir(), "data.ttl")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := rdf.ParseTurtle(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	for _, sortURI := range []string{"", "http://ex/Person", "http://ex/Agent", "http://ex/Company", absentSort} {
		want, ok := graphView(g, sortURI)
		d, err := Load(path, sortURI)
		checkLoad(t, "turtle", sortURI, want, ok, d, err)
	}
}

// Loading N-Triples interns subjects and predicates only: no object,
// whether literal or URI, enters the dictionary.
func TestFoldDictionaryHoldsSubjectsAndPredicates(t *testing.T) {
	want := []string{
		"http://ex/acme", "http://ex/alice", "http://ex/birthDate", "http://ex/bob",
		"http://ex/name", rdf.TypeURI,
	}
	for _, sortURI := range []string{"", "http://ex/Person"} {
		dict := term.NewDict()
		if err := newFold(dict, sortURI).readNTriples(strings.NewReader(fixture)); err != nil {
			t.Fatal(err)
		}
		got := dict.StringsFrom(0)
		sort.Strings(got)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("sort %q: dictionary = %q, want %q", sortURI, got, want)
		}
	}
}
