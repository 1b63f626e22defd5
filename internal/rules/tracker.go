package rules

import (
	"fmt"
	"sort"

	"repro/internal/bitset"
)

// CountTracker maintains the Σ-count state behind the closed-form
// structuredness measures — the per-property subject counts N_p, the
// subject count |S|, and the total 1-entries of M(D) — under
// incremental updates. It is the rules-layer half of the incremental
// structuredness engine: internal/incr feeds it property gain/loss and
// subject appear/disappear events as triples arrive and retract, and
// any CountsFunc (σCov, σSim) evaluates against the live counts in
// O(|P|) without rebuilding a view.
type CountTracker struct {
	counts   []int64
	subjects int64
	ones     int64
}

// NewCountTracker returns a tracker over nProps property columns.
func NewCountTracker(nProps int) *CountTracker {
	return &CountTracker{counts: make([]int64, nProps)}
}

// Grow extends the tracker to nProps columns (new columns start at 0).
// Shrinking is not supported: retired properties keep a zero column,
// which no closed-form measure observes.
func (t *CountTracker) Grow(nProps int) {
	for len(t.counts) < nProps {
		t.counts = append(t.counts, 0)
	}
}

// Gain records that one more subject has property column i.
func (t *CountTracker) Gain(i int) {
	t.counts[i]++
	t.ones++
}

// Lose records that one fewer subject has property column i.
func (t *CountTracker) Lose(i int) {
	if t.counts[i] == 0 {
		panic(fmt.Sprintf("rules: Lose on zero-count column %d", i))
	}
	t.counts[i]--
	t.ones--
}

// AddSubjects adjusts |S| by delta (use −1 for a retired subject).
func (t *CountTracker) AddSubjects(delta int64) {
	t.subjects += delta
	if t.subjects < 0 {
		panic("rules: negative subject count")
	}
}

// Counts returns the live N_p vector. Read-only; valid until the next
// mutation.
func (t *CountTracker) Counts() []int64 { return t.counts }

// Subjects returns |S|.
func (t *CountTracker) Subjects() int64 { return t.subjects }

// Ones returns Σ_p N_p, the number of 1-entries of the live M(D).
func (t *CountTracker) Ones() int64 { return t.ones }

// NumProps returns the number of tracked columns.
func (t *CountTracker) NumProps() int { return len(t.counts) }

// Eval computes σ of the live dataset under fn in O(|P|): it folds the
// live counts into their moments, to which zero-count columns contribute
// nothing, so retired properties need no compaction.
func (t *CountTracker) Eval(fn CountsFunc) Ratio {
	return fn.EvalMoments(MomentsOf(t.counts), t.subjects)
}

// Clone returns an independent copy (used to snapshot σ at the last
// refinement for drift policies).
func (t *CountTracker) Clone() *CountTracker {
	return &CountTracker{
		counts:   append([]int64(nil), t.counts...),
		subjects: t.subjects,
		ones:     t.ones,
	}
}

// Merge adds other's aggregates into t: N_p, |S| and the 1-entry total
// all sum. This is the additive union of two subject-disjoint datasets'
// Σ-counts — exact because a subject contributes its N_p increments and
// its |S| unit to exactly one side. colMap translates other's column i
// into t's column space; a zero-count column of other (retired, never
// observed by any closed form) may map to -1 and is skipped.
func (t *CountTracker) Merge(other *CountTracker, colMap []int) {
	for i, c := range other.counts {
		if c != 0 {
			t.counts[colMap[i]] += c
			t.ones += c
		}
	}
	t.subjects += other.subjects
}

// PairTracker maintains the pairwise co-occurrence counts C[p1][p2] —
// the aggregate behind the compiled two-variable evaluators — under
// incremental updates. It is the pair-count half of the Σ-count state:
// internal/incr feeds it column-set transitions as subjects migrate
// between signature sets, and any PairCountsFunc (σDep, σSymDep,
// compiled rules) evaluates against the live matrix in O(1) per read
// without rebuilding a view. The diagonal carries N_p, mirroring
// matrix.PairCounts.
//
// Storage is adaptive, mirroring matrix.PairCounts: up to
// pairTrackerDenseMax columns the matrix is dense rows (O(1) reads and
// updates); above that it switches to sorted sparse (column, count)
// rows holding only non-zeros, so a wide schema costs O(live pairs)
// instead of 8·|P|² bytes. Entries that decrement to zero are removed,
// keeping the sparse form canonical: the binary encoding — which
// iterates non-zero upper-triangle entries row-major — is byte-
// identical across modes for equal logical state. The bitset storage
// policy forces a mode in tests; Grow converts in place when the mode
// changes, preserving every entry exactly.
//
// Columns follow the same append-only space as CountTracker: retired
// columns keep zero rows, which no kernel observes (their N_p is 0).
type PairTracker struct {
	n int
	// dense mode: square symmetric matrix; nil in sparse mode.
	c [][]int64
	// sparse mode: per-row non-zero entries, cols sorted ascending.
	// Symmetric entries are stored on both rows, like the dense form.
	rows []pairRow
}

type pairRow struct {
	cols []int32
	vals []int64
}

// pairTrackerDenseMax is the widest live schema kept on dense rows.
const pairTrackerDenseMax = 1024

// useSparseTracker applies the storage policy on top of the size bound.
func useSparseTracker(nProps int) bool {
	switch bitset.CurrentPolicy() {
	case bitset.PolicyDense:
		return false
	case bitset.PolicySparse:
		return true
	}
	return nProps > pairTrackerDenseMax
}

// NewPairTracker returns a tracker over nProps property columns.
func NewPairTracker(nProps int) *PairTracker {
	t := &PairTracker{}
	t.Grow(nProps)
	return t
}

// Grow extends the tracker to nProps columns (new columns start at 0),
// converting the storage mode if the policy/size bound now prefers the
// other one.
func (t *PairTracker) Grow(nProps int) {
	if nProps < t.n {
		nProps = t.n
	}
	wantSparse := useSparseTracker(nProps)
	if t.n == 0 && t.c == nil && t.rows == nil {
		// Fresh tracker: adopt the desired mode directly.
		if !wantSparse {
			t.c = make([][]int64, 0, nProps)
		}
	}
	if wantSparse != (t.c == nil) {
		t.convert(wantSparse)
	}
	if t.c != nil {
		for i := range t.c {
			for len(t.c[i]) < nProps {
				t.c[i] = append(t.c[i], 0)
			}
		}
		for len(t.c) < nProps {
			t.c = append(t.c, make([]int64, nProps))
		}
	} else {
		for len(t.rows) < nProps {
			t.rows = append(t.rows, pairRow{})
		}
	}
	t.n = nProps
}

// convert rewrites the storage into the other mode, preserving every
// entry exactly.
func (t *PairTracker) convert(toSparse bool) {
	if toSparse {
		rows := make([]pairRow, t.n)
		for i, row := range t.c {
			for j, v := range row {
				if v != 0 {
					rows[i].cols = append(rows[i].cols, int32(j))
					rows[i].vals = append(rows[i].vals, v)
				}
			}
		}
		t.c, t.rows = nil, rows
		return
	}
	c := make([][]int64, t.n)
	for i := range c {
		c[i] = make([]int64, t.n)
	}
	for i, row := range t.rows {
		for k, j := range row.cols {
			c[i][j] = row.vals[k]
		}
	}
	t.c, t.rows = c, nil
}

// NumProps returns the number of tracked columns.
func (t *PairTracker) NumProps() int { return t.n }

// Both returns the number of subjects having both column i and j.
func (t *PairTracker) Both(i, j int) int64 {
	if t.c != nil {
		return t.c[i][j]
	}
	r := &t.rows[i]
	k := sort.Search(len(r.cols), func(k int) bool { return r.cols[k] >= int32(j) })
	if k < len(r.cols) && r.cols[k] == int32(j) {
		return r.vals[k]
	}
	return 0
}

// add adjusts entry (i, j) by delta in sparse mode, inserting new
// entries in column order and deleting entries that reach zero (the
// canonical-form invariant the codec relies on). Panics on negative
// results like the dense decrements do.
func (r *pairRow) add(i, j int, delta int64) {
	k := sort.Search(len(r.cols), func(k int) bool { return r.cols[k] >= int32(j) })
	if k < len(r.cols) && r.cols[k] == int32(j) {
		r.vals[k] += delta
		switch {
		case r.vals[k] == 0:
			r.cols = append(r.cols[:k], r.cols[k+1:]...)
			r.vals = append(r.vals[:k], r.vals[k+1:]...)
		case r.vals[k] < 0:
			panic(fmt.Sprintf("rules: negative pair count (%d,%d)", i, j))
		}
		return
	}
	if delta < 0 {
		panic(fmt.Sprintf("rules: negative pair count (%d,%d)", i, j))
	}
	r.cols = append(r.cols, 0)
	copy(r.cols[k+1:], r.cols[k:])
	r.cols[k] = int32(j)
	r.vals = append(r.vals, 0)
	copy(r.vals[k+1:], r.vals[k:])
	r.vals[k] = delta
}

// addSym adjusts the symmetric entry pair (i, j)/(j, i) by delta.
func (t *PairTracker) addSym(i, j int, delta int64) {
	t.rows[i].add(i, j, delta)
	if i != j {
		t.rows[j].add(j, i, delta)
	}
}

// AddCol records that a subject whose property set is cols gained
// column c (c ∉ cols): the diagonal and every (c, x) pair increment.
// The cost is O(|cols|) dense — proportional to the subject's property
// count, like CountTracker's per-transition work — and
// O(|cols|·log row) sparse.
func (t *PairTracker) AddCol(cols []int, c int) {
	if t.c != nil {
		t.c[c][c]++
		for _, x := range cols {
			t.c[c][x]++
			t.c[x][c]++
		}
		return
	}
	t.addSym(c, c, 1)
	for _, x := range cols {
		t.addSym(c, x, 1)
	}
}

// forEachNonZero calls f with every non-zero entry (both triangles,
// diagonal included) in row-major order.
func (t *PairTracker) forEachNonZero(f func(i, j int, v int64)) {
	if t.c != nil {
		for i, row := range t.c {
			for j, v := range row {
				if v != 0 {
					f(i, j, v)
				}
			}
		}
		return
	}
	for i := range t.rows {
		r := &t.rows[i]
		for k, j := range r.cols {
			f(i, int(j), r.vals[k])
		}
	}
}

// Merge adds other's co-occurrence matrix into t — the additive union
// of two subject-disjoint datasets' pair aggregates. Exact for the same
// reason CountTracker.Merge is: each subject's co-occurrence pairs live
// wholly on one side, so every C[p1][p2] entry (diagonal N_p included)
// sums. The inputs may use different storage modes. colMap translates
// other's column i into t's column space; a column whose entries are
// all zero (retired — its N_p is 0, and a subject having a pair has
// both members, so all its pair entries are 0 too) may map to -1 and is
// skipped.
func (t *PairTracker) Merge(other *PairTracker, colMap []int) {
	other.forEachNonZero(func(i, j int, v int64) {
		mi, mj := colMap[i], colMap[j]
		if t.c != nil {
			t.c[mi][mj] += v
			return
		}
		t.rows[mi].add(mi, mj, v)
	})
}

// RemoveCol records that a subject whose property set is now cols
// (after the loss) lost column c.
func (t *PairTracker) RemoveCol(cols []int, c int) {
	if t.c != nil {
		t.c[c][c]--
		if t.c[c][c] < 0 {
			panic(fmt.Sprintf("rules: RemoveCol on zero-count column %d", c))
		}
		for _, x := range cols {
			t.c[c][x]--
			t.c[x][c]--
			if t.c[c][x] < 0 {
				panic(fmt.Sprintf("rules: negative pair count (%d,%d)", c, x))
			}
		}
		return
	}
	t.addSym(c, c, -1)
	for _, x := range cols {
		t.addSym(c, x, -1)
	}
}

// MemSize estimates the tracker's heap footprint in bytes.
func (t *PairTracker) MemSize() int64 {
	if t.c != nil {
		return int64(t.n) * int64(t.n) * 8
	}
	var b int64
	for i := range t.rows {
		b += 24 + int64(len(t.rows[i].cols))*4 + int64(len(t.rows[i].vals))*8
	}
	return b
}

// IsSparse reports whether the tracker currently uses sparse rows.
func (t *PairTracker) IsSparse() bool { return t.c == nil }
