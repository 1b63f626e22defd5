// Package core is the public facade of the library: loading RDF
// datasets, computing structuredness values under built-in or custom
// rules, and discovering sort refinements. Examples and command-line
// tools are written against this package; the underlying machinery
// lives in internal/rdf, internal/matrix, internal/rules, internal/ilp
// and internal/refine.
package core

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"

	"repro/internal/matrix"
	"repro/internal/rdf"
	"repro/internal/refine"
	"repro/internal/rules"
	"repro/internal/term"
	"repro/internal/viz"
)

// Dataset couples a property-structure view with its provenance.
type Dataset struct {
	Name string
	View *matrix.View
}

// Load reads an RDF file, selecting the parser by extension: .ttl/.turtle
// for Turtle, anything else N-Triples. A non-empty sortURI extracts the
// subgraph Dt of the subjects declared of that sort.
func Load(path, sortURI string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".ttl") || strings.HasSuffix(path, ".turtle") {
		fd := newFold(term.NewDict(), sortURI)
		if err := rdf.ReadTurtleIDs(f, fd.dict, func(it rdf.IDTriple) error { fd.addID(it); return nil }); err != nil {
			return nil, err
		}
		return fd.dataset(path)
	}
	return ReadNTriples(f, path, sortURI)
}

// ReadNTriples is Load for N-Triples read from r.
func ReadNTriples(r io.Reader, name, sortURI string) (*Dataset, error) {
	fd := newFold(term.NewDict(), sortURI)
	if err := fd.readNTriples(r); err != nil {
		return nil, err
	}
	return fd.dataset(name)
}

// FromGraph builds a dataset from a graph, extracting Dt when sortURI
// is non-empty.
func FromGraph(g *rdf.Graph, name, sortURI string) (*Dataset, error) {
	fd := newFold(g.Dict(), sortURI)
	g.EachTripleID(fd.addID)
	return fd.dataset(name)
}

// fold streams triples into a view builder and records, in the same
// pass, Dt: the subjects carrying (rdf:type, <sortURI>) with a URI
// object.
type fold struct {
	dict    *term.Dict
	b       *matrix.Builder
	sortURI string
	typeID  term.ID // interned only when a sort is asked for
	inSort  map[term.ID]bool
}

func newFold(dict *term.Dict, sortURI string) *fold {
	fd := &fold{
		dict:    dict,
		b:       matrix.NewBuilder(dict, matrix.Options{KeepSubjects: true}),
		sortURI: sortURI,
		inSort:  map[term.ID]bool{},
	}
	if sortURI != "" {
		fd.typeID = dict.Intern(rdf.TypeURI)
	}
	return fd
}

// readNTriples folds an N-Triples dump line by line. Objects are
// compared, never interned, so the dictionary holds only subjects and
// predicates.
func (fd *fold) readNTriples(r io.Reader) error {
	dec := rdf.NewNTriplesDecoder(r)
	for {
		s, p, kind, obj, err := dec.NextSP(fd.dict)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		fd.b.Add(s, p)
		if fd.sortURI != "" && p == fd.typeID && kind == rdf.URI && string(obj) == fd.sortURI {
			fd.inSort[s] = true
		}
	}
}

func (fd *fold) addID(it rdf.IDTriple) {
	fd.b.Add(it.S, it.P)
	if fd.sortURI != "" && it.P == fd.typeID && it.OKind == rdf.URI && fd.dict.String(it.O) == fd.sortURI {
		fd.inSort[it.S] = true
	}
}

func (fd *fold) dataset(name string) (*Dataset, error) {
	if fd.sortURI == "" {
		return &Dataset{Name: name, View: fd.b.View(nil)}, nil
	}
	if len(fd.inSort) == 0 {
		return nil, fmt.Errorf("core: no subjects of sort %q", fd.sortURI)
	}
	return &Dataset{Name: name, View: fd.b.View(func(s term.ID) bool { return fd.inSort[s] })}, nil
}

// FromView wraps a pre-built view.
func FromView(name string, v *matrix.View) *Dataset {
	return &Dataset{Name: name, View: v}
}

// ParseRule parses the rule language (see internal/rules for syntax).
func ParseRule(src string) (*rules.Rule, error) { return rules.Parse(src) }

// Builtin returns a named built-in structuredness function: "cov",
// "sim", "dep[p1,p2]", "symdep[p1,p2]", "depdisj[p1,p2]".
func Builtin(name string) (rules.Func, *rules.Rule, error) {
	lower := strings.ToLower(strings.TrimSpace(name))
	switch {
	case lower == "cov":
		return rules.CovFunc(), rules.CovRule(), nil
	case lower == "sim":
		return rules.SimFunc(), rules.SimRule(), nil
	case strings.HasPrefix(lower, "dep[") && strings.HasSuffix(lower, "]"):
		p1, p2, err := splitPair(name[4 : len(name)-1])
		if err != nil {
			return nil, nil, err
		}
		return rules.DepFunc(p1, p2), rules.DepRule(p1, p2), nil
	case strings.HasPrefix(lower, "symdep[") && strings.HasSuffix(lower, "]"):
		p1, p2, err := splitPair(name[7 : len(name)-1])
		if err != nil {
			return nil, nil, err
		}
		return rules.SymDepFunc(p1, p2), rules.SymDepRule(p1, p2), nil
	case strings.HasPrefix(lower, "depdisj[") && strings.HasSuffix(lower, "]"):
		p1, p2, err := splitPair(name[8 : len(name)-1])
		if err != nil {
			return nil, nil, err
		}
		return rules.DepDisjFunc(p1, p2), rules.DepDisjRule(p1, p2), nil
	}
	return nil, nil, fmt.Errorf("core: unknown builtin %q (want cov, sim, dep[p1,p2], symdep[p1,p2] or depdisj[p1,p2])", name)
}

func splitPair(s string) (string, string, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return "", "", fmt.Errorf("core: want two comma-separated properties, got %q", s)
	}
	return strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1]), nil
}

// Structuredness computes σ of the dataset under a rule (closed form
// or compiled kernel when the rule is in the two-variable fragment).
func (d *Dataset) Structuredness(r *rules.Rule) (rules.Ratio, error) {
	return d.StructurednessParallel(r, 0)
}

// StructurednessParallel is Structuredness with an evaluation worker
// count for rules outside the compiled fragment: when the rule falls
// back to the generic rough-assignment evaluator, the enumeration is
// split across workers (rules.EvaluateParallel; 0 = GOMAXPROCS, 1 =
// sequential). The result is bit-identical for every worker count;
// closed forms and compiled kernels ignore the knob — they are already
// cheap.
func (d *Dataset) StructurednessParallel(r *rules.Rule, workers int) (rules.Ratio, error) {
	fn := rules.FuncForRule(r)
	if rf, ok := fn.(rules.RuleFunc); ok {
		if workers == 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		rf.Workers = workers
		fn = rf
	}
	return fn.Eval(d.View)
}

// StructurednessFunc computes σ under an arbitrary Func.
func (d *Dataset) StructurednessFunc(fn rules.Func) (rules.Ratio, error) {
	return fn.Eval(d.View)
}

// Summary returns a one-paragraph description mirroring the dataset
// statistics the paper reports (Figures 2 and 3 captions).
func (d *Dataset) Summary() string {
	v := d.View
	cov := rules.Coverage(v).Value()
	sim := rules.Similarity(v).Value()
	return fmt.Sprintf("%s: %d subjects, %d properties, %d signature sets; σCov=%.2f σSim=%.2f",
		d.Name, v.NumSubjects(), v.NumProperties(), v.NumSignatures(), cov, sim)
}

// Render draws the dataset's signature view as ASCII art.
func (d *Dataset) Render(maxRows int) string {
	return viz.Render(d.View, viz.Options{MaxRows: maxRows, ShowCounts: true})
}

// RefineResult packages a sort refinement with presentation helpers.
type RefineResult struct {
	Outcome *refine.Outcome
	Dataset *Dataset
}

// HighestTheta runs the paper's first strategy: the best threshold
// achievable with at most k implicit sorts.
func (d *Dataset) HighestTheta(r *rules.Rule, k int, opts refine.SearchOptions) (*RefineResult, error) {
	out, err := refine.HighestTheta(d.View, r, nil, k, opts)
	if err != nil {
		return nil, err
	}
	return &RefineResult{Outcome: out, Dataset: d}, nil
}

// LowestK runs the paper's second strategy: the fewest implicit sorts
// reaching threshold theta1/theta2.
func (d *Dataset) LowestK(r *rules.Rule, theta1, theta2 int64, opts refine.SearchOptions) (*RefineResult, error) {
	out, err := refine.LowestK(d.View, r, nil, theta1, theta2, opts)
	if err != nil {
		return nil, err
	}
	return &RefineResult{Outcome: out, Dataset: d}, nil
}

// Describe renders the refinement like the paper's figure captions:
// per-sort subject counts, signature counts, and σCov/σSim values.
func (rr *RefineResult) Describe() string {
	var b strings.Builder
	out := rr.Outcome
	ref := out.Refinement
	if ref == nil {
		return "no refinement found"
	}
	views, _ := ref.SortViews(rr.Dataset.View)
	fmt.Fprintf(&b, "θ=%d/%d, k≤%d → %d non-empty sorts (exact=%v, %d instances, %v)\n",
		out.Theta1, out.Theta2, ref.K, len(views), out.Exact, out.Instances, out.Elapsed.Round(1000000))
	// Stable presentation order: by subject count descending.
	sort.Slice(views, func(i, j int) bool { return views[i].NumSubjects() > views[j].NumSubjects() })
	for i, v := range views {
		fmt.Fprintf(&b, "  sort %d: %d subjects, %d signatures, σCov=%.2f, σSim=%.2f\n",
			i+1, v.NumSubjects(), v.NumSignatures(),
			rules.Coverage(v).Value(), rules.Similarity(v).Value())
	}
	return b.String()
}

// RenderSorts draws the refinement's sorts side by side (Figures 4–7).
func (rr *RefineResult) RenderSorts(maxRows int) string {
	views, _ := rr.Outcome.Refinement.SortViews(rr.Dataset.View)
	sort.Slice(views, func(i, j int) bool { return views[i].NumSubjects() > views[j].NumSubjects() })
	return viz.RenderSideBySide(views, nil, viz.Options{MaxRows: maxRows, ShowCounts: true})
}

// SortViewsBySize returns the refinement's non-empty sorts, largest
// first.
func (rr *RefineResult) SortViewsBySize() []*matrix.View {
	views, _ := rr.Outcome.Refinement.SortViews(rr.Dataset.View)
	sort.Slice(views, func(i, j int) bool { return views[i].NumSubjects() > views[j].NumSubjects() })
	return views
}
