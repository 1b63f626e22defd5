package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/ilp"
	"repro/internal/rdf"
	"repro/internal/refine"
)

const fixture = `
<http://ex/alice> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Person> .
<http://ex/alice> <http://ex/name> "Alice" .
<http://ex/alice> <http://ex/birthDate> "1980" .
<http://ex/bob> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Person> .
<http://ex/bob> <http://ex/name> "Bob" .
<http://ex/acme> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Company> .
<http://ex/acme> <http://ex/name> "Acme" .
`

func TestReadNTriplesWithSort(t *testing.T) {
	d, err := ReadNTriples(strings.NewReader(fixture), "test", "http://ex/Person")
	if err != nil {
		t.Fatal(err)
	}
	if d.View.NumSubjects() != 2 {
		t.Fatalf("subjects = %d, want 2 (persons only)", d.View.NumSubjects())
	}
	if d.View.NumProperties() != 2 {
		t.Fatalf("properties = %v", d.View.Properties())
	}
}

func TestReadNTriplesUnknownSort(t *testing.T) {
	if _, err := ReadNTriples(strings.NewReader(fixture), "test", "http://ex/Nothing"); err == nil {
		t.Fatal("unknown sort accepted")
	}
}

func TestStructurednessAndSummary(t *testing.T) {
	d, err := ReadNTriples(strings.NewReader(fixture), "persons", "http://ex/Person")
	if err != nil {
		t.Fatal(err)
	}
	r, err := ParseRule("c = c -> val(c) = 1")
	if err != nil {
		t.Fatal(err)
	}
	val, err := d.Structuredness(r)
	if err != nil {
		t.Fatal(err)
	}
	if got := val.Value(); got != 0.75 { // 3 ones / (2 subjects × 2 props)
		t.Fatalf("σCov = %v, want 0.75", got)
	}
	sum := d.Summary()
	if !strings.Contains(sum, "persons") || !strings.Contains(sum, "2 subjects") {
		t.Fatalf("summary = %q", sum)
	}
	if d.Render(5) == "" {
		t.Fatal("empty render")
	}
}

func TestBuiltin(t *testing.T) {
	cases := []struct {
		name string
		want string
	}{
		{"cov", "Cov"},
		{"sim", "Sim"},
		{"dep[a,b]", "Dep[a,b]"},
		{"symdep[a, b]", "SymDep[a,b]"},
	}
	for _, c := range cases {
		fn, rule, err := Builtin(c.name)
		if err != nil {
			t.Fatalf("Builtin(%q): %v", c.name, err)
		}
		if fn.Name() != c.want {
			t.Errorf("Builtin(%q) = %q, want %q", c.name, fn.Name(), c.want)
		}
		if rule == nil {
			t.Errorf("Builtin(%q) returned nil rule", c.name)
		}
	}
	for _, bad := range []string{"nope", "dep[a]", "dep[a,b,c]", ""} {
		if _, _, err := Builtin(bad); err == nil {
			t.Errorf("Builtin(%q) accepted", bad)
		}
	}
}

func TestHighestThetaEndToEnd(t *testing.T) {
	d := FromView("dbpedia", datagen.DBpediaPersons(0.005))
	_, rule, err := Builtin("cov")
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.HighestTheta(rule, 2, refine.SearchOptions{
		Heuristic: refine.HeuristicOptions{Restarts: 2, MaxIters: 30},
		Solver:    ilp.Options{MaxDecisions: 20000},
		Encode:    refine.EncodeOptions{SymmetryBreaking: true, MaxTVars: 2500},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome.Theta1 <= 54 {
		t.Fatalf("no improvement over base: θ=%d", res.Outcome.Theta1)
	}
	desc := res.Describe()
	if !strings.Contains(desc, "sort 1") || !strings.Contains(desc, "sort 2") {
		t.Fatalf("Describe missing sorts:\n%s", desc)
	}
	if res.RenderSorts(3) == "" {
		t.Fatal("RenderSorts empty")
	}
	if len(res.SortViewsBySize()) != 2 {
		t.Fatal("expected 2 sorts")
	}
}

func TestLowestKEndToEnd(t *testing.T) {
	d := FromView("dbpedia", datagen.DBpediaPersons(0.005))
	_, rule, err := Builtin("sim")
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.LowestK(rule, 85, 100, refine.SearchOptions{
		Engine:    refine.EngineHeuristic,
		Heuristic: refine.HeuristicOptions{Restarts: 2, MaxIters: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome.K < 1 || res.Outcome.K > 10 {
		t.Fatalf("k = %d", res.Outcome.K)
	}
}

func TestSaveAndLoadNTriples(t *testing.T) {
	path := filepath.Join(t.TempDir(), "persons.nt")
	g := datagen.DBpediaPersonsGraph(0.001)
	d, err := FromGraph(g, "gen", "")
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rdf.WriteNTriples(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path, datagen.DBpediaPersonsSortURI)
	if err != nil {
		t.Fatal(err)
	}
	if back.View.NumSubjects() != d.View.NumSubjects() {
		t.Fatalf("round trip subjects %d != %d", back.View.NumSubjects(), d.View.NumSubjects())
	}
}

func TestLoadTurtle(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.ttl")
	src := "@prefix ex: <http://ex/> .\nex:a a ex:T ; ex:name \"A\" .\nex:b a ex:T ; ex:name \"B\" ; ex:age 3 .\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := Load(path, "http://ex/T")
	if err != nil {
		t.Fatal(err)
	}
	if d.View.NumSubjects() != 2 || d.View.NumProperties() != 2 {
		t.Fatalf("turtle load: %s", d.Summary())
	}
	// N-Triples fallback by extension.
	ntPath := filepath.Join(dir, "data.nt")
	nt := "<http://ex/a> <http://ex/name> \"A\" .\n"
	if err := os.WriteFile(ntPath, []byte(nt), 0o644); err != nil {
		t.Fatal(err)
	}
	d2, err := Load(ntPath, "")
	if err != nil {
		t.Fatal(err)
	}
	if d2.View.NumSubjects() != 1 {
		t.Fatalf("ntriples load: %s", d2.Summary())
	}
}
