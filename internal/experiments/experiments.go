// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 7) against the calibrated synthetic
// datasets. Each experiment returns a Report with the printable
// artifact and the key numbers, and EXPERIMENTS.md records
// paper-vs-measured for each. cmd/paper is the command-line driver;
// the root bench_test.go exposes one benchmark per artifact.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/refine"
)

// Config scopes an experiment run.
type Config struct {
	// Scale applies to the DBpedia/WordNet generators (1.0 = the
	// paper's full subject counts). Structuredness values are
	// scale-invariant by design; 0.01 is the default trade-off.
	Scale float64
	// Seed drives every randomized component.
	Seed int64
	// Quick trims search budgets for use inside `go test`.
	Quick bool
	// Engine overrides the solver selection (default auto).
	Engine refine.Engine
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 0.01
	}
	return c
}

func (c Config) search() refine.SearchOptions {
	opts := refine.SearchOptions{Engine: c.Engine}
	if c.Quick {
		opts.Heuristic = refine.HeuristicOptions{Restarts: 2, MaxIters: 40, Seed: c.Seed}
		opts.Solver.MaxDecisions = 20_000
		opts.Encode.MaxTVars = 2_500
	} else {
		opts.Heuristic = refine.HeuristicOptions{Restarts: 6, MaxIters: 150, Seed: c.Seed}
		opts.Solver.MaxDecisions = 500_000
		opts.Encode.MaxTVars = 30_000
	}
	opts.Encode.SymmetryBreaking = true
	return opts
}

// Report is the outcome of one experiment.
type Report struct {
	ID      string
	Title   string
	Text    string
	Metrics map[string]float64
}

func newReport(id, title string) *Report {
	return &Report{ID: id, Title: title, Metrics: map[string]float64{}}
}

func (r *Report) printf(format string, args ...interface{}) {
	r.Text += fmt.Sprintf(format, args...)
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s — %s ===\n%s", r.ID, r.Title, r.Text)
	if len(r.Metrics) > 0 {
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString("metrics:")
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%.4g", k, r.Metrics[k])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Runner is one experiment entry point.
type Runner struct {
	ID    string
	Title string
	Run   func(Config) (*Report, error)
}

// All lists every experiment in paper order.
func All() []Runner {
	return []Runner{
		{"fig2", "DBpedia Persons dataset statistics (Figure 2)", Fig2},
		{"fig3", "WordNet Nouns dataset statistics (Figure 3)", Fig3},
		{"fig4a", "DBpedia Persons, σCov, highest θ for k=2 (Figure 4a)", Fig4a},
		{"fig4b", "DBpedia Persons, σSim, highest θ for k=2 (Figure 4b)", Fig4b},
		{"fig4c", "DBpedia Persons, σSymDep[deathPlace,deathDate], k=2 (Figure 4c)", Fig4c},
		{"fig5a", "DBpedia Persons, σCov, lowest k for θ=0.9 (Figure 5a)", Fig5a},
		{"fig5b", "DBpedia Persons, σSim, lowest k for θ=0.9 (Figure 5b)", Fig5b},
		{"table1", "σDep over death/birth properties (Table 1)", Table1},
		{"table2", "σSymDep ranking over property pairs (Table 2)", Table2},
		{"fig6a", "WordNet Nouns, σCov, highest θ for k=2 (Figure 6a)", Fig6a},
		{"fig6b", "WordNet Nouns, σSim, highest θ for k=2 (Figure 6b)", Fig6b},
		{"fig7a", "WordNet Nouns, σCov, lowest k for θ=0.9 (Figure 7a)", Fig7a},
		{"fig7b", "WordNet Nouns, σSim, lowest k for θ=0.98 (Figure 7b)", Fig7b},
		{"fig8", "YAGO scalability: runtime vs signatures and properties (Figure 8)", Fig8},
		{"sec74", "Semantic correctness: Drug Companies vs Sultans (Section 7.4)", Sec74},
	}
}

// ByID returns the runner with the given id.
func ByID(id string) (Runner, bool) {
	for _, r := range All() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}
