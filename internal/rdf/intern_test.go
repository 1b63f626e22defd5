package rdf

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/term"
)

// TestGraphIDRoundtrip checks the ID-based API agrees with the string
// API on the same graph.
func TestGraphIDRoundtrip(t *testing.T) {
	g := NewGraph()
	g.AddURI("s1", "p1", "o1")
	g.AddLiteral("s1", "p2", "v")
	g.AddURI("s2", "p1", "o1")

	dict := g.Dict()
	s1, ok := dict.Lookup("s1")
	if !ok {
		t.Fatal("s1 not interned")
	}
	p1, _ := dict.Lookup("p1")
	if !g.HasSubjectID(s1) || !g.HasPropertyID(s1, p1) {
		t.Fatal("ID accessors disagree with string accessors")
	}
	var seen []string
	g.EachSubjectTripleID(s1, func(it IDTriple) {
		seen = append(seen, dict.String(it.P))
	})
	if len(seen) != 2 || seen[0] != "p1" || seen[1] != "p2" {
		t.Fatalf("EachSubjectTripleID order = %v", seen)
	}
	// A literal and a URI with the same value are distinct triples.
	g.AddLiteral("s2", "p1", "o1")
	if g.Len() != 4 {
		t.Fatalf("literal/URI with equal value collapsed: Len = %d", g.Len())
	}
	if !g.Contains(Triple{Subject: "s2", Predicate: "p1", Object: NewLiteral("o1")}) ||
		!g.Contains(Triple{Subject: "s2", Predicate: "p1", Object: NewURI("o1")}) {
		t.Fatal("kind not part of triple identity")
	}
}

// TestCompactReusesRetiredSubject is the Remove→compact→Add regression
// test: retire a subject through enough removals to trigger compaction,
// then re-add triples for it and check every index answers correctly.
func TestCompactReusesRetiredSubject(t *testing.T) {
	g := NewGraph()
	// 200 filler triples across 100 subjects, plus the victim subject.
	for i := 0; i < 100; i++ {
		g.AddURI(fmt.Sprintf("s%d", i), "p", fmt.Sprintf("o%d", i))
		g.AddURI(fmt.Sprintf("s%d", i), "q", "shared")
	}
	g.AddURI("victim", "p", "vo")
	g.AddURI("victim", "r", "vo")

	// Remove the victim and then enough filler to force compact()
	// (dead > live/2 and dead >= 64).
	g.Remove(Triple{Subject: "victim", Predicate: "p", Object: NewURI("vo")})
	g.Remove(Triple{Subject: "victim", Predicate: "r", Object: NewURI("vo")})
	for i := 0; i < 70; i++ {
		g.Remove(Triple{Subject: fmt.Sprintf("s%d", i), Predicate: "p", Object: NewURI(fmt.Sprintf("o%d", i))})
		g.Remove(Triple{Subject: fmt.Sprintf("s%d", i), Predicate: "q", Object: NewURI("shared")})
	}
	if g.HasSubject("victim") {
		t.Fatal("victim survived removal")
	}
	if g.Len() != 60 {
		t.Fatalf("Len = %d, want 60", g.Len())
	}

	// Re-add the retired subject: its dictionary ID is reused, and the
	// rebuilt indexes must serve it exactly like a fresh subject.
	if !g.AddURI("victim", "p", "vo2") {
		t.Fatal("re-Add after compact failed")
	}
	if !g.HasSubject("victim") || !g.HasProperty("victim", "p") {
		t.Fatal("re-added subject not indexed")
	}
	if g.HasProperty("victim", "r") {
		t.Fatal("stale property survived retirement")
	}
	if got := g.SubjectTriples("victim"); len(got) != 1 || got[0].Object.Value != "vo2" {
		t.Fatalf("SubjectTriples(victim) = %v", got)
	}
	if g.SubjectDegree("victim") != 1 {
		t.Fatalf("SubjectDegree = %d, want 1", g.SubjectDegree("victim"))
	}
	// The old triple stays gone, the new one is present.
	if g.Contains(Triple{Subject: "victim", Predicate: "p", Object: NewURI("vo")}) {
		t.Fatal("compact resurrected a removed triple")
	}
	// Survivors kept their triples in insertion order.
	if got := g.SubjectTriples("s80"); len(got) != 2 || got[0].Predicate != "p" || got[1].Predicate != "q" {
		t.Fatalf("survivor triples = %v", got)
	}
}

// randomNTDoc builds an N-Triples document exercising escaped literals,
// language tags, datatypes, blank nodes, comments and very long lines.
func randomNTDoc(rng *rand.Rand, lines int) string {
	var b strings.Builder
	lit := func() string {
		pieces := []string{`plain`, `tab\there`, `nl\nthere`, `quote\"q`, `back\\slash`, `uni\u00e9`, `astral\U0001F600`, `cr\rx`}
		n := 1 + rng.Intn(3)
		var s strings.Builder
		for i := 0; i < n; i++ {
			s.WriteString(pieces[rng.Intn(len(pieces))])
		}
		if rng.Intn(4) == 0 {
			// A long literal: stress the scanner's buffer growth.
			s.WriteString(strings.Repeat("x", 5000+rng.Intn(5000)))
		}
		return s.String()
	}
	for i := 0; i < lines; i++ {
		switch rng.Intn(10) {
		case 0:
			b.WriteString("# comment line\n")
			continue
		case 1:
			b.WriteString("\n")
			continue
		}
		subj := fmt.Sprintf("<http://ex/s%d>", rng.Intn(20))
		if rng.Intn(6) == 0 {
			subj = fmt.Sprintf("_:b%d", rng.Intn(5))
		}
		pred := fmt.Sprintf("<http://ex/p%d>", rng.Intn(6))
		var obj string
		switch rng.Intn(3) {
		case 0:
			obj = fmt.Sprintf("<http://ex/o%d>", rng.Intn(30))
		case 1:
			obj = `"` + lit() + `"`
			switch rng.Intn(3) {
			case 0:
				obj += "@en"
			case 1:
				obj += "^^<http://www.w3.org/2001/XMLSchema#string>"
			}
		case 2:
			obj = fmt.Sprintf("_:b%d", rng.Intn(5))
		}
		fmt.Fprintf(&b, "%s %s %s .", subj, pred, obj)
		if rng.Intn(5) == 0 {
			b.WriteString("  # trailing comment")
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestNTriplesStreamingMatchesBatch round-trips randomized documents
// through both decode paths — the streaming interned decoder (NextID)
// and the line-at-a-time string decoder (Next) — and requires identical
// triple sequences, including unescaped literal values.
func TestNTriplesStreamingMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 20; round++ {
		doc := randomNTDoc(rng, 60)

		var viaString []Triple
		if err := ReadNTriples(strings.NewReader(doc), func(tr Triple) error {
			viaString = append(viaString, tr)
			return nil
		}); err != nil {
			t.Fatalf("round %d: string path: %v\ndoc:\n%s", round, err, doc)
		}

		g := NewGraph()
		dec := NewNTriplesDecoder(strings.NewReader(doc))
		var viaID []Triple
		for {
			it, err := dec.NextID(g.Dict())
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("round %d: interned path: %v", round, err)
			}
			viaID = append(viaID, Triple{
				Subject:   g.Dict().String(it.S),
				Predicate: g.Dict().String(it.P),
				Object:    Term{Kind: it.OKind, Value: g.Dict().String(it.O)},
			})
		}

		if len(viaString) != len(viaID) {
			t.Fatalf("round %d: %d triples via strings, %d via IDs", round, len(viaString), len(viaID))
		}
		for i := range viaString {
			if viaString[i] != viaID[i] {
				t.Fatalf("round %d triple %d:\n  string: %+v\n  interned: %+v", round, i, viaString[i], viaID[i])
			}
		}
	}
}

// TestNTriplesWriteParseRoundtrip serializes a graph with hostile
// literal values and re-parses it through both paths.
func TestNTriplesWriteParseRoundtrip(t *testing.T) {
	g := NewGraph()
	values := []string{
		"plain", "with \"quotes\"", "tab\tand\nnewline", `back\slash`,
		"é-accent", "emoji \U0001F600", strings.Repeat("long", 4000),
		"\r carriage",
	}
	for i, v := range values {
		g.AddLiteral(fmt.Sprintf("http://ex/s%d", i), "http://ex/p", v)
	}
	var buf bytes.Buffer
	if err := WriteNTriples(&buf, g); err != nil {
		t.Fatal(err)
	}

	batch, err := ParseNTriples(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if batch.Len() != g.Len() {
		t.Fatalf("batch reparse: %d triples, want %d", batch.Len(), g.Len())
	}
	for i, v := range values {
		if !batch.Contains(Triple{Subject: fmt.Sprintf("http://ex/s%d", i), Predicate: "http://ex/p", Object: NewLiteral(v)}) {
			t.Fatalf("value %q lost in roundtrip", v)
		}
	}
}

// FuzzNTriplesLineParity feeds arbitrary lines to the string parser,
// the interning parser and the object-skipping NextSP; they must agree
// on accept/reject and on the parsed triple, and NextSP on the error.
func FuzzNTriplesLineParity(f *testing.F) {
	f.Add(`<http://ex/s> <http://ex/p> "lit\ttab" .`)
	f.Add(`<http://ex/s> <http://ex/p> <http://ex/o> . # c`)
	f.Add(`_:b0 <p> "\u00e9"@en .`)
	f.Add(`<s> <p> "x"^^<http://t> .`)
	f.Add(`# just a comment`)
	f.Add(`<s> <p> "dangling\`)
	f.Add(`<s> <p> "bad\escape" .`)
	f.Add(``)
	f.Fuzz(func(t *testing.T, line string) {
		if strings.ContainsAny(line, "\n\r") {
			return // the decoders never see embedded newlines
		}
		st, okS, errS := ParseNTriplesLine(line, 1)

		g := NewGraph()
		dec := NewNTriplesDecoder(strings.NewReader(line + "\n"))
		it, errI := dec.NextID(g.Dict())
		okI := errI == nil
		if errI == io.EOF {
			errI = nil
		}

		if okS != okI {
			t.Fatalf("accept mismatch for %q: string ok=%v err=%v, interned ok=%v err=%v", line, okS, errS, okI, errI)
		}
		if (errS == nil) != (errI == nil) {
			t.Fatalf("error mismatch for %q: %v vs %v", line, errS, errI)
		}
		if okS {
			got := Triple{
				Subject:   g.Dict().String(it.S),
				Predicate: g.Dict().String(it.P),
				Object:    Term{Kind: it.OKind, Value: g.Dict().String(it.O)},
			}
			if got != st {
				t.Fatalf("triple mismatch for %q:\n  string: %+v\n  interned: %+v", line, st, got)
			}
		}

		// NextSP parses and validates exactly as the others do but
		// interns only the subject and predicate.
		dict := term.NewDict()
		s, p, kind, obj, errP := NewNTriplesDecoder(strings.NewReader(line + "\n")).NextSP(dict)
		okP := errP == nil
		if errP == io.EOF {
			errP = nil
		}
		if okS != okP || (errS == nil) != (errP == nil) || (errS != nil && errS.Error() != errP.Error()) {
			t.Fatalf("NextSP mismatch for %q: string ok=%v err=%v, NextSP ok=%v err=%v", line, okS, errS, okP, errP)
		}
		if okS {
			got := Triple{Subject: dict.String(s), Predicate: dict.String(p), Object: Term{Kind: kind, Value: string(obj)}}
			if got != st {
				t.Fatalf("NextSP triple mismatch for %q:\n  string: %+v\n  NextSP: %+v", line, st, got)
			}
			if want := len(map[string]bool{st.Subject: true, st.Predicate: true}); dict.Len() != want {
				t.Fatalf("NextSP interned %d terms for %q, want %d (subject and predicate only)", dict.Len(), line, want)
			}
		}
	})
}

// TestSubjSetSpill drives one predicate's subject set past the spill
// threshold with out-of-order inserts and removals, checking that
// membership, removal semantics and property-count bookkeeping agree
// with a model map throughout.
func TestSubjSetSpill(t *testing.T) {
	g := NewGraph()
	rng := rand.New(rand.NewSource(11))
	model := map[string]bool{}
	name := func(i int) string { return fmt.Sprintf("s%06d", i) }
	// Interleave: a monotone bulk load, then random churn (re-adds and
	// removals across the whole ID range) well past subjSpill.
	for i := 0; i < subjSpill+2000; i++ {
		g.AddURI(name(i), "p", "o")
		model[name(i)] = true
	}
	for i := 0; i < 6000; i++ {
		j := rng.Intn(subjSpill + 2000)
		if rng.Intn(2) == 0 {
			g.AddURI(name(j), "p", "o")
			model[name(j)] = true
		} else {
			g.Remove(Triple{Subject: name(j), Predicate: "p", Object: NewURI("o")})
			delete(model, name(j))
		}
	}
	for i := 0; i < subjSpill+2000; i++ {
		if g.HasProperty(name(i), "p") != model[name(i)] {
			t.Fatalf("membership mismatch for %s", name(i))
		}
	}
	want := 0
	for _, ok := range model {
		if ok {
			want++
		}
	}
	if g.SubjectCount() != want {
		t.Fatalf("SubjectCount = %d, want %d", g.SubjectCount(), want)
	}
	if want > 0 {
		if got := g.Properties(); len(got) != 1 || got[0] != "p" {
			t.Fatalf("Properties = %v", got)
		}
	}
}
