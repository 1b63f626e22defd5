// Package ilp provides the integer linear programming substrate the
// paper delegates to IBM ILOG CPLEX. It contains a model builder, an
// exact pseudo-Boolean feasibility solver (the paper's sort-refinement
// encoding is a pure 0/1 feasibility system, for which propagation +
// backtracking search is a complete decision procedure), and an LP
// file writer for handing the same model to an external solver.
package ilp

import "fmt"

// Var identifies a model variable.
type Var int

// Sense is a constraint relation.
type Sense int

// Constraint relations.
const (
	LE Sense = iota // Σ aᵢxᵢ ≤ b
	GE              // Σ aᵢxᵢ ≥ b
	EQ              // Σ aᵢxᵢ = b
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return "?"
}

// Term is a coefficient–variable product.
type Term struct {
	Var  Var
	Coef int64
}

// Constraint is a linear constraint Σ Terms ⟨Sense⟩ RHS.
type Constraint struct {
	Name  string
	Terms []Term
	Sense Sense
	RHS   int64
}

// varInfo describes one variable.
type varInfo struct {
	name   string
	lo, hi int64
}

// Model is a system of integer variables and linear constraints. The
// zero value is an empty model ready to use.
type Model struct {
	vars        []varInfo
	constraints []Constraint
	// Branching hints: variables listed first are decided first by the
	// PB solver; unlisted variables follow in index order.
	priority []Var
	// Preferred first value per variable (default 0 means "try 0 first"
	// unless set by SetPreferred).
	preferred map[Var]int64
}

// Binary adds a 0/1 variable.
func (m *Model) Binary(name string) Var { return m.IntVar(name, 0, 1) }

// IntVar adds an integer variable with inclusive bounds.
func (m *Model) IntVar(name string, lo, hi int64) Var {
	if lo > hi {
		panic(fmt.Sprintf("ilp: variable %q has empty domain [%d,%d]", name, lo, hi))
	}
	m.vars = append(m.vars, varInfo{name: name, lo: lo, hi: hi})
	return Var(len(m.vars) - 1)
}

// NumVars returns the number of variables.
func (m *Model) NumVars() int { return len(m.vars) }

// NumConstraints returns the number of constraints.
func (m *Model) NumConstraints() int { return len(m.constraints) }

// VarName returns the name of v.
func (m *Model) VarName(v Var) string { return m.vars[v].name }

// Bounds returns the domain of v.
func (m *Model) Bounds(v Var) (lo, hi int64) { return m.vars[v].lo, m.vars[v].hi }

// Add appends a constraint. Terms referencing unknown variables panic.
// Duplicate variables within one constraint are merged.
func (m *Model) Add(name string, terms []Term, sense Sense, rhs int64) {
	merged := make(map[Var]int64, len(terms))
	order := make([]Var, 0, len(terms))
	for _, t := range terms {
		if int(t.Var) < 0 || int(t.Var) >= len(m.vars) {
			panic(fmt.Sprintf("ilp: constraint %q references unknown variable %d", name, t.Var))
		}
		if _, seen := merged[t.Var]; !seen {
			order = append(order, t.Var)
		}
		merged[t.Var] += t.Coef
	}
	out := make([]Term, 0, len(order))
	for _, v := range order {
		if merged[v] != 0 {
			out = append(out, Term{Var: v, Coef: merged[v]})
		}
	}
	m.constraints = append(m.constraints, Constraint{Name: name, Terms: out, Sense: sense, RHS: rhs})
}

// Constraints returns the constraints. The slice must not be modified.
func (m *Model) Constraints() []Constraint { return m.constraints }

// SetPriority declares the preferred branching order for search-based
// solvers. Variables not listed are branched on last, in index order.
func (m *Model) SetPriority(vars []Var) { m.priority = append([]Var(nil), vars...) }

// SetPreferred sets the value tried first when branching on v.
func (m *Model) SetPreferred(v Var, val int64) {
	if m.preferred == nil {
		m.preferred = map[Var]int64{}
	}
	m.preferred[v] = val
}

// AllBinary reports whether every variable has domain {0,1} — the
// precondition for the pseudo-Boolean solver.
func (m *Model) AllBinary() bool {
	for _, v := range m.vars {
		if v.lo != 0 || v.hi != 1 {
			return false
		}
	}
	return true
}

// Check verifies an assignment against all constraints, returning the
// first violated constraint (for tests and cross-validation).
func (m *Model) Check(values []int64) error {
	if len(values) != len(m.vars) {
		return fmt.Errorf("ilp: %d values for %d variables", len(values), len(m.vars))
	}
	for i, v := range m.vars {
		if values[i] < v.lo || values[i] > v.hi {
			return fmt.Errorf("ilp: variable %s = %d outside [%d,%d]", v.name, values[i], v.lo, v.hi)
		}
	}
	for _, c := range m.constraints {
		var lhs int64
		for _, t := range c.Terms {
			lhs += t.Coef * values[t.Var]
		}
		ok := false
		switch c.Sense {
		case LE:
			ok = lhs <= c.RHS
		case GE:
			ok = lhs >= c.RHS
		case EQ:
			ok = lhs == c.RHS
		}
		if !ok {
			return fmt.Errorf("ilp: constraint %q violated: lhs=%d %s %d", c.Name, lhs, c.Sense, c.RHS)
		}
	}
	return nil
}

// Status is the outcome of a solve.
type Status int

// Solve outcomes.
const (
	// StatusFeasible means a satisfying assignment was found.
	StatusFeasible Status = iota
	// StatusInfeasible means the system was proven unsatisfiable.
	StatusInfeasible
	// StatusUnknown means the solver hit its time or work limit.
	StatusUnknown
)

func (s Status) String() string {
	switch s {
	case StatusFeasible:
		return "feasible"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnknown:
		return "unknown"
	}
	return "?"
}

// Stats reports solver effort.
type Stats struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	// TermScans counts the constraint terms PB propagation examined: a
	// deterministic work measure for a given model and Options.
	TermScans int64
}

// Result is the outcome of a feasibility solve.
type Result struct {
	Status Status
	Values []int64 // valid when Status == StatusFeasible
	Stats  Stats
}

// Options bounds solver effort.
type Options struct {
	// MaxDecisions limits PB decisions; 0 means no limit.
	MaxDecisions int64
	// MaxConflicts limits PB conflicts; 0 means no limit.
	MaxConflicts int64
	// Cancel aborts the solve with StatusUnknown when closed. The
	// solver polls it in its decision loop, so a cancelled search stops
	// promptly instead of waiting for its budget.
	Cancel <-chan struct{}
}

// canceled reports whether the Cancel channel is closed.
func (o *Options) canceled() bool {
	if o.Cancel == nil {
		return false
	}
	select {
	case <-o.Cancel:
		return true
	default:
		return false
	}
}
