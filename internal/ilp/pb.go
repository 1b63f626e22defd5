package ilp

import (
	"sort"
)

// SolvePB decides feasibility of an all-binary model with a
// pseudo-Boolean propagation + chronological backtracking search. It is
// a complete decision procedure: StatusFeasible comes with a verified
// assignment, StatusInfeasible is a proof of unsatisfiability, and
// StatusUnknown is only returned when Options limits are hit.
//
// Propagation maintains, for every constraint Σ aᵢxᵢ ≥ b (all senses
// are normalized to ≥), the maximum achievable left-hand side given the
// current partial assignment. When that maximum drops below b the
// constraint is conflicting; when fixing a single literal would drop it
// below b, the opposite value is implied (unit propagation on
// pseudo-Boolean constraints).
//
// Each constraint keeps its terms sorted by |aᵢ|, largest first, so the
// implication scan stops at the first term with |aᵢ| ≤ slack: no later
// term can be implied. Assigning a literal never raises a maximum
// activity, so implications are monotone and the propagation fixpoint —
// and whether it conflicts — does not depend on the scan order. Every
// variable's occurrence list carries its coefficient, so an assignment
// updates the activities it touches without a term lookup.
func SolvePB(m *Model, opts Options) Result {
	if !m.AllBinary() {
		panic("ilp: SolvePB requires all-binary model")
	}
	s := newPBState(m)
	// Root propagation.
	if !s.propagate() {
		return Result{Status: StatusInfeasible, Stats: s.stats}
	}
	order := s.branchOrder()
	for {
		// Find next unassigned variable in branching order.
		v := -1
		for ; s.orderPos < len(order); s.orderPos++ {
			if s.value[order[s.orderPos]] == unassigned {
				v = order[s.orderPos]
				break
			}
		}
		if v == -1 {
			vals := make([]int64, len(s.value))
			for i, x := range s.value {
				vals[i] = int64(x)
			}
			return Result{Status: StatusFeasible, Values: vals, Stats: s.stats}
		}
		s.stats.Decisions++
		if opts.MaxDecisions > 0 && s.stats.Decisions > opts.MaxDecisions {
			return Result{Status: StatusUnknown, Stats: s.stats}
		}
		if s.stats.Decisions&63 == 0 && opts.canceled() {
			return Result{Status: StatusUnknown, Stats: s.stats}
		}
		ok := s.decide(v, s.preferred[v])
		for !ok || !s.propagate() {
			s.stats.Conflicts++
			if opts.MaxConflicts > 0 && s.stats.Conflicts > opts.MaxConflicts {
				return Result{Status: StatusUnknown, Stats: s.stats}
			}
			if s.stats.Conflicts&63 == 0 && opts.canceled() {
				return Result{Status: StatusUnknown, Stats: s.stats}
			}
			if !s.backtrack() {
				return Result{Status: StatusInfeasible, Stats: s.stats}
			}
			ok = true // backtrack leaves a propagated, conflict-free state
		}
	}
}

const unassigned = int8(-1)

// pbConstraint is a normalized Σ aᵢxᵢ ≥ b constraint.
type pbConstraint struct {
	terms []pbTerm // by |a| descending
	rhs   int64
	// maxAct is the maximum achievable LHS under the current partial
	// assignment: Σ_{assigned} aᵢxᵢ + Σ_{unassigned} max(aᵢ, 0).
	maxAct int64
}

// pbTerm is one coefficient–variable product of a constraint.
type pbTerm struct {
	v int32
	a int64
}

// pbOcc is one occurrence of a variable: a constraint and the
// variable's coefficient in it.
type pbOcc struct {
	ci int32
	a  int64
}

type trailEntry struct {
	v        int
	decision bool // true if a decision point (vs propagated)
	tried    int8 // the value assigned
}

type pbState struct {
	m             *Model
	value         []int8
	cons          []pbConstraint
	occ           [][]pbOcc // var -> occurrences
	trail         []trailEntry
	stats         Stats
	preferred     []int8
	orderPosStack []int
	orderPos      int
	// dirty tracks constraints whose activity changed since they were
	// last scanned for implications; propagation only revisits those.
	dirty   []int32
	inDirty []bool
}

func newPBState(m *Model) *pbState {
	s := &pbState{
		m:     m,
		value: make([]int8, m.NumVars()),
		occ:   make([][]pbOcc, m.NumVars()),
	}
	for i := range s.value {
		s.value[i] = unassigned
	}
	s.preferred = make([]int8, m.NumVars())
	for v, val := range m.preferred {
		if val == 1 {
			s.preferred[v] = 1
		}
	}
	for _, c := range m.Constraints() {
		switch c.Sense {
		case GE:
			s.addNormalized(c.Terms, c.RHS, +1)
		case LE:
			s.addNormalized(c.Terms, c.RHS, -1)
		case EQ:
			s.addNormalized(c.Terms, c.RHS, +1)
			s.addNormalized(c.Terms, c.RHS, -1)
		}
	}
	s.inDirty = make([]bool, len(s.cons))
	for ci := range s.cons {
		for _, t := range s.cons[ci].terms {
			s.occ[t.v] = append(s.occ[t.v], pbOcc{ci: int32(ci), a: t.a})
		}
		s.markDirty(int32(ci)) // initial full scan
	}
	return s
}

func (s *pbState) markDirty(ci int32) {
	if !s.inDirty[ci] {
		s.inDirty[ci] = true
		s.dirty = append(s.dirty, ci)
	}
}

// addNormalized adds sign·(Σ aᵢxᵢ) ≥ sign·rhs as a ≥ constraint.
func (s *pbState) addNormalized(terms []Term, rhs int64, sign int64) {
	c := pbConstraint{rhs: sign * rhs, terms: make([]pbTerm, 0, len(terms))}
	for _, t := range terms {
		a := sign * t.Coef
		c.terms = append(c.terms, pbTerm{v: int32(t.Var), a: a})
		if a > 0 {
			c.maxAct += a
		}
	}
	sort.SliceStable(c.terms, func(i, j int) bool { return abs(c.terms[i].a) > abs(c.terms[j].a) })
	s.cons = append(s.cons, c)
}

// branchOrder returns variable indices in branching order.
func (s *pbState) branchOrder() []int {
	seen := make([]bool, s.m.NumVars())
	order := make([]int, 0, s.m.NumVars())
	for _, v := range s.m.priority {
		if !seen[v] {
			seen[v] = true
			order = append(order, int(v))
		}
	}
	for v := 0; v < s.m.NumVars(); v++ {
		if !seen[v] {
			order = append(order, v)
		}
	}
	return order
}

// assign sets v := val, atomically applying activity deltas to every
// constraint mentioning v, and reports whether no constraint became
// conflicting. Even on conflict all deltas are applied, so unassign is
// always an exact inverse.
func (s *pbState) assign(v int, val int8, decision bool) bool {
	s.value[v] = val
	s.trail = append(s.trail, trailEntry{v: v, decision: decision, tried: val})
	s.stats.Propagations++
	ok := true
	for _, o := range s.occ[v] {
		c := &s.cons[o.ci]
		if a := o.a; a > 0 {
			if val == 0 {
				c.maxAct -= a
				s.markDirty(o.ci)
			}
		} else if val == 1 {
			c.maxAct += a
			s.markDirty(o.ci)
		}
		if c.maxAct < c.rhs {
			ok = false
		}
	}
	return ok
}

// unassign restores v and the constraint activities.
func (s *pbState) unassign(v int) {
	val := s.value[v]
	for _, o := range s.occ[v] {
		c := &s.cons[o.ci]
		if a := o.a; a > 0 {
			if val == 0 {
				c.maxAct += a
			}
		} else if val == 1 {
			c.maxAct -= a
		}
	}
	s.value[v] = unassigned
}

func (s *pbState) decide(v int, val int8) bool {
	s.orderPosStack = append(s.orderPosStack, s.orderPos)
	return s.assign(v, val, true)
}

// propagate runs pseudo-Boolean unit propagation to a fixpoint over the
// dirty constraint set and reports whether the state is conflict-free.
// Tightening a constraint marks it dirty (via assign), so only touched
// constraints are rescanned; relaxations (backtracking) can never
// create new implications and need no marking. A constraint's scan
// stops at the first term with |a| ≤ slack, since its terms are sorted
// by |a| descending. An implied literal takes its term's better value,
// so it leaves the constraint's own slack unchanged for the rest of the
// scan.
func (s *pbState) propagate() bool {
	for len(s.dirty) > 0 {
		ci := s.dirty[len(s.dirty)-1]
		s.dirty = s.dirty[:len(s.dirty)-1]
		s.inDirty[ci] = false
		c := &s.cons[ci]
		slack := c.maxAct - c.rhs
		if slack < 0 {
			return false
		}
		for _, t := range c.terms {
			s.stats.TermScans++
			if abs(t.a) <= slack {
				break
			}
			v := int(t.v)
			if s.value[v] != unassigned {
				continue
			}
			// Setting v to the value that loses |a| would drop maxAct
			// below rhs ⇒ v takes the other value.
			val := int8(1)
			if t.a < 0 {
				val = 0
			}
			if !s.assign(v, val, false) {
				return false
			}
		}
	}
	return true
}

func abs(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}

// backtrack undoes to the most recent decision whose alternative value
// is untried, flips it, re-propagates, and returns true; returns false
// when the search space is exhausted. On true return the state is
// conflict-free and fully propagated.
func (s *pbState) backtrack() bool {
	// The state below the landing decision was at fixpoint when that
	// decision was made, so pending dirty entries are stale; drop them.
	for _, ci := range s.dirty {
		s.inDirty[ci] = false
	}
	s.dirty = s.dirty[:0]
	for len(s.trail) > 0 {
		e := s.trail[len(s.trail)-1]
		s.trail = s.trail[:len(s.trail)-1]
		s.unassign(e.v)
		if e.decision {
			s.orderPos = s.orderPosStack[len(s.orderPosStack)-1]
			s.orderPosStack = s.orderPosStack[:len(s.orderPosStack)-1]
			if e.tried == s.preferred[e.v] {
				// Flip to the other value; the flip is recorded as a
				// propagation-level assignment under the remaining prefix,
				// so a later unwind removes it without re-flipping.
				if s.assign(e.v, 1-e.tried, false) && s.propagate() {
					return true
				}
				// Flipping also conflicts: continue unwinding.
				continue
			}
			// Both values tried at this decision: keep unwinding.
		}
	}
	return false
}
