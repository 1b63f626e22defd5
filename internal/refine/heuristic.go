package refine

import (
	"math/rand"
	"slices"
	"sort"

	"repro/internal/bitset"
	"repro/internal/matrix"
	"repro/internal/rules"
)

// HeuristicOptions configures the local-search engine.
type HeuristicOptions struct {
	// Restarts is the number of independent seeds (default 8).
	Restarts int
	// MaxIters caps local-search rounds per restart (default 200).
	MaxIters int
	// Seed makes runs deterministic.
	Seed int64
	// TargetEarlyExit stops at the first restart whose result clears the
	// problem's threshold — the search drivers set this because any
	// verified witness decides the feasibility instance.
	TargetEarlyExit bool
	// Cancel aborts the search when closed; the result is then reported
	// as "no witness found" and must be discarded by the caller.
	Cancel <-chan struct{}
}

func (o *HeuristicOptions) defaults() {
	if o.Restarts == 0 {
		o.Restarts = 8
	}
	if o.MaxIters == 0 {
		o.MaxIters = 200
	}
}

// restartResult memoizes one restart: its seed and, once searched,
// its local optimum and score. Neither reads θ, so a θ sweep builds
// each at most once and only re-checks feasibility per grid point.
type restartResult struct {
	seed   Assignment // nil until built
	assign Assignment // local optimum; nil until searched
	sc     score
}

// restartSet holds the restarts of one local search over a fixed
// (view, measure, k, Seed, MaxIters). Each is computed lazily and at
// most once; solve decides one threshold from them.
type restartSet struct {
	ge   *groupEval
	k    int
	opts HeuristicOptions
	runs []restartResult
}

func newRestartSet(p *Problem, opts HeuristicOptions) *restartSet {
	opts.defaults()
	return &restartSet{ge: newGroupEval(p.EvalFunc(), p.View), k: p.K, opts: opts, runs: make([]restartResult, opts.Restarts)}
}

// SolveHeuristic searches for an assignment maximizing the minimum
// σ over non-empty sorts with at most p.K sorts, via greedy seeding
// plus steepest-ascent relocation local search with restarts. The
// winner is the first feasible restart under TargetEarlyExit, else the
// best score with the lowest restart index breaking ties.
// Feasible answers are exactly verified witnesses; "not found" answers
// carry no infeasibility proof (use SolveExact for that). Each call
// computes its restarts afresh; HighestTheta instead shares one
// restartSet across its θ grid.
func SolveHeuristic(p *Problem, opts HeuristicOptions) (*Refinement, bool, error) {
	if err := p.Validate(); err != nil {
		return nil, false, err
	}
	return newRestartSet(p, opts).solve(p)
}

// solve is SolveHeuristic at p's threshold; p must have the set's view,
// measure and k.
func (rs *restartSet) solve(p *Problem) (*Refinement, bool, error) {
	if err := p.Validate(); err != nil {
		return nil, false, err
	}
	var best Assignment
	bestScore := score{min: -1}
	for r := 0; r < len(rs.runs) && !canceled(rs.opts.Cancel); r++ {
		assign, sc, feasible, err := rs.run(p, r)
		if err == ErrCanceled {
			break
		}
		if err != nil {
			return nil, false, err
		}
		// A witness decides the instance; later restarts could not win.
		if rs.opts.TargetEarlyExit && feasible {
			best = assign
			break
		}
		if sc.better(bestScore) {
			bestScore = sc
			best = assign
		}
	}
	if best == nil {
		// Cancelled before any restart completed.
		return nil, false, nil
	}
	best = slices.Clone(best)
	fn, v := rs.ge.fn, rs.ge.view
	values, min, err := EvalAssignment(fn, v, best, rs.k)
	if err != nil {
		return nil, false, err
	}
	feasible, err := Feasible(fn, v, best, rs.k, p.Theta1, p.Theta2)
	if err != nil {
		return nil, false, err
	}
	// A feasible answer is an exactly-verified witness (rational
	// comparison in Feasible); only a "not found" answer is heuristic.
	return &Refinement{Assignment: best, K: rs.k, Values: values, MinSigma: min, Exact: feasible}, feasible, nil
}

// restartSeed derives a well-mixed per-restart RNG seed (splitmix64)
// so restarts are independent of execution order.
func restartSeed(seed int64, r int) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(r+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// run decides restart r at p's threshold: the seed if it already
// clears θ (under TargetEarlyExit), else the local optimum searched
// from a copy of the seed. feasible is meaningful only under
// TargetEarlyExit. A search cut short by Cancel memoizes nothing.
func (rs *restartSet) run(p *Problem, r int) (assign Assignment, sc score, feasible bool, err error) {
	m := &rs.runs[r]
	if m.seed == nil {
		if m.seed, err = rs.newSeed(r); err != nil {
			return nil, score{}, false, err
		}
	}
	// Seeds are often already feasible (notably at large k, where a
	// near-identity assignment clears any threshold); skip the local
	// search when a witness only is needed.
	if rs.opts.TargetEarlyExit {
		if ok, err := Feasible(rs.ge.fn, rs.ge.view, m.seed, rs.k, p.Theta1, p.Theta2); err != nil || ok {
			return m.seed, score{}, ok, err
		}
	}
	if m.assign == nil {
		st, err := newSearchState(rs.ge, slices.Clone(m.seed), rs.k)
		if err != nil {
			return nil, score{}, false, err
		}
		if err := st.localSearch(rs.opts.MaxIters, rs.opts.Cancel); err != nil {
			return nil, score{}, false, err
		}
		m.assign, m.sc = st.assign, st.score()
	}
	if rs.opts.TargetEarlyExit {
		feasible, err = Feasible(rs.ge.fn, rs.ge.view, m.assign, rs.k, p.Theta1, p.Theta2)
	}
	return m.assign, m.sc, feasible, err
}

// newSeed builds restart r's seed assignment and counts the restart.
func (rs *restartSet) newSeed(r int) (Assignment, error) {
	restarts.Inc()
	rng := rand.New(rand.NewSource(restartSeed(rs.opts.Seed, r)))
	switch r % 4 {
	case 0:
		return mergeSeed(rs.ge, rs.k)
	case 1:
		return greedySeed(rs.ge, rs.k)
	case 2:
		return profileSeed(rs.ge.view, rs.k, rng), nil
	}
	assign := make(Assignment, rs.ge.view.NumSignatures())
	for i := range assign {
		assign[i] = rng.Intn(rs.k)
	}
	return assign, nil
}

// score orders candidate assignments: primarily by minimum σ over
// non-empty sorts, secondarily by the sum of σ values (to escape
// plateaus where the minimum is pinned by one sort).
type score struct {
	min float64
	sum float64
}

func (s score) better(t score) bool {
	const eps = 1e-12
	if s.min > t.min+eps {
		return true
	}
	if s.min < t.min-eps {
		return false
	}
	return s.sum > t.sum+eps
}

// groupEval is the shared, immutable evaluation context for one solve:
// the measure, the view, and per-signature property supports and
// subject counts. When the measure is counts-based (rules.CountsFunc,
// i.e. the closed forms σCov, σSim and compiled one-variable rules),
// groups are scored from the running moments of their counts, which a
// move updates in O(popcount) — only the moved signature's columns
// change; when it is pair-counts-based with fixed demands
// (rules.PairCountsFunc + PairDemands, i.e. σDep, σSymDep, σDepDisj and
// compiled pinned two-variable rules), a running co-occurrence count
// per demanded pair per sort extends the same delta-scoring to
// dependency measures — no signature scan per move. It is safe for
// concurrent use; mutable aggregates live in the callers.
type groupEval struct {
	fn       rules.Func
	inc      rules.CountsFunc     // nil when fn has no counts form
	pairFn   rules.PairCountsFunc // nil unless pair-incremental mode is on
	pairCols [][2]int             // resolved demanded column pairs
	pairHas  []bool               // [sig·len(pairCols)+slot]: sig has both columns
	view     *matrix.View
	support  [][]int // per signature: set property columns
	count    []int64 // per signature: subject count
	nProps   int
}

func newGroupEval(fn rules.Func, v *matrix.View) *groupEval {
	ge := &groupEval{fn: fn, view: v, nProps: v.NumProperties()}
	if inc, ok := fn.(rules.CountsFunc); ok {
		ge.inc = inc
	} else if pf, ok := fn.(rules.PairCountsFunc); ok {
		if pd, ok := fn.(rules.PairDemands); ok {
			if names := pd.NeededPairs(); names != nil {
				ge.pairFn = pf
				// Demanded pairs with a missing endpoint need no slot: the
				// kernel's own Column lookup reports the absence and the
				// measure goes vacuous without reading the pair.
				for _, np := range names {
					i, ok1 := v.PropertyIndex(np[0])
					j, ok2 := v.PropertyIndex(np[1])
					if ok1 && ok2 {
						ge.pairCols = append(ge.pairCols, [2]int{i, j})
					}
				}
			}
		}
	}
	sigs := v.Signatures()
	ge.support = make([][]int, len(sigs))
	ge.count = make([]int64, len(sigs))
	for i, sg := range sigs {
		ge.support[i] = sg.Support()
		ge.count[i] = int64(sg.Count)
	}
	if ge.pairFn != nil && len(ge.pairCols) > 0 {
		ge.pairHas = make([]bool, len(sigs)*len(ge.pairCols))
		for mu, sg := range sigs {
			base := mu * len(ge.pairCols)
			for s, pc := range ge.pairCols {
				ge.pairHas[base+s] = sg.Bits.Test(pc[0]) && sg.Bits.Test(pc[1])
			}
		}
	}
	return ge
}

// incremental reports whether groups are scored from delta-maintained
// aggregates rather than subset views.
func (ge *groupEval) incremental() bool { return ge.inc != nil || ge.pairFn != nil }

// trackedPairs adapts a group's demanded pair-count slots to the
// rules.PairCounts read interface. Kernels honoring their declared
// PairDemands only read tracked entries; an untracked read panics
// loudly rather than silently corrupting the search.
type trackedPairs struct {
	view *matrix.View
	cols [][2]int
	vals []int64
}

func (t *trackedPairs) Column(p string) (int, bool) { return t.view.PropertyIndex(p) }

func (t *trackedPairs) Both(i, j int) int64 {
	for s, pc := range t.cols {
		if (pc[0] == i && pc[1] == j) || (pc[0] == j && pc[1] == i) {
			return t.vals[s]
		}
	}
	panic("refine: pair-count read outside the measure's declared demands")
}

// agg is the delta-maintained aggregate of one group of signatures: its
// subject count, its per-property counts N_p with their moments, and
// (pair mode) its demanded co-occurrence counts. Counts mode scores the
// moments; pair mode hands the N_p vector to the pair kernel.
type agg struct {
	n      int64
	counts []int64
	mom    rules.Moments
	pairs  *trackedPairs // nil in counts mode
}

// newAgg returns the aggregate of group.
func (ge *groupEval) newAgg(group []int) *agg {
	g := &agg{counts: make([]int64, ge.nProps)}
	if ge.pairFn != nil {
		g.pairs = &trackedPairs{view: ge.view, cols: ge.pairCols, vals: make([]int64, len(ge.pairCols))}
	}
	for _, mu := range group {
		ge.add(g, mu, +1)
	}
	return g
}

// add folds signature mu into g (sign = +1) or takes it out
// (sign = −1) in O(popcount(μ)).
func (ge *groupEval) add(g *agg, mu int, sign int64) {
	c := sign * ge.count[mu]
	g.n += c
	for _, p := range ge.support[mu] {
		old := g.counts[p]
		g.counts[p] = old + c
		g.mom = g.mom.Move(old, old+c)
	}
	if g.pairs != nil {
		base := mu * len(ge.pairCols)
		for s := range ge.pairCols {
			if ge.pairHas[base+s] {
				g.pairs.vals[s] += c
			}
		}
	}
}

// fold adds (sign = +1) or subtracts (sign = −1) group src, whose
// non-zero columns are srcLive, into dst in O(|srcLive|). Moving each
// column of dst by src's count accumulates, in dst's moments, the
// overlap of the two live sets and the Σ N_p·N′_p cross term.
func (ge *groupEval) fold(dst, src *agg, srcLive []int, sign int64) {
	dst.n += sign * src.n
	for _, p := range srcLive {
		old := dst.counts[p]
		dst.counts[p] = old + sign*src.counts[p]
		dst.mom = dst.mom.Move(old, dst.counts[p])
	}
	if dst.pairs != nil {
		for s, c := range src.pairs.vals {
			dst.pairs.vals[s] += sign * c
		}
	}
}

// value scores g. Empty groups are vacuous (σ = 1).
func (ge *groupEval) value(g *agg) float64 {
	if g.n == 0 {
		return 1
	}
	if ge.inc != nil {
		return ge.inc.EvalMoments(g.mom, g.n).Value()
	}
	return ge.pairFn.EvalPairCounts(g.counts, g.pairs, g.n).Value()
}

// valueWith scores g with signature mu added (sign = +1) or removed
// (sign = −1). The move is applied in place and undone — the integer
// aggregates return exactly to their prior state — so a candidate costs
// O(popcount(μ)) and needs no scratch copy.
func (ge *groupEval) valueWith(g *agg, mu int, sign int64) float64 {
	ge.add(g, mu, sign)
	v := ge.value(g)
	ge.add(g, mu, -sign)
	return v
}

// eval scores an arbitrary group through its subset view — the generic
// path for measures without an aggregate form.
func (ge *groupEval) eval(group []int) (float64, error) {
	if len(group) == 0 {
		return 1, nil
	}
	r, err := ge.fn.Eval(ge.view.Subset(group))
	if err != nil {
		return 0, err
	}
	return r.Value(), nil
}

// searchState evaluates relocation moves incrementally. Per-sort σ
// values are cached, and for counts- and pair-based measures the
// per-sort aggregates are maintained so a candidate move is scored in
// O(popcount) — independent of group sizes and of |P| — instead of
// re-evaluating whole subset views.
type searchState struct {
	ge     *groupEval
	assign Assignment
	k      int
	groups [][]int   // sort -> ascending signature indices
	vals   []float64 // per-sort σ (vacuous 1 for empty)
	aggs   []*agg    // per sort; nil in generic mode
}

func newSearchState(ge *groupEval, assign Assignment, k int) (*searchState, error) {
	st := &searchState{ge: ge, assign: assign, k: k}
	st.groups = make([][]int, k)
	for sig, s := range assign {
		st.groups[s] = append(st.groups[s], sig)
	}
	st.vals = make([]float64, k)
	if ge.incremental() {
		st.aggs = make([]*agg, k)
		for s := range st.groups {
			st.aggs[s] = ge.newAgg(st.groups[s])
			st.vals[s] = ge.value(st.aggs[s])
		}
		return st, nil
	}
	for s := range st.groups {
		val, err := ge.eval(st.groups[s])
		if err != nil {
			return nil, err
		}
		st.vals[s] = val
	}
	return st, nil
}

// evalRemove scores sort a with signature mu removed. ga is the group
// list after removal (used only in generic mode).
func (st *searchState) evalRemove(a, mu int, ga []int) (float64, error) {
	if st.aggs == nil {
		return st.ge.eval(ga)
	}
	return st.ge.valueWith(st.aggs[a], mu, -1), nil
}

// evalInsert scores sort b with signature mu added. gb is the group
// list after insertion (used only in generic mode).
func (st *searchState) evalInsert(b, mu int, gb []int) (float64, error) {
	if st.aggs == nil {
		return st.ge.eval(gb)
	}
	return st.ge.valueWith(st.aggs[b], mu, +1), nil
}

// apply moves signature mu to sort b, with va/vb the already-computed
// σ values of the shrunken source and grown destination sorts.
func (st *searchState) apply(mu, b int, va, vb float64) {
	a := st.assign[mu]
	st.groups[a] = remove(st.groups[a], mu)
	st.groups[b] = insertSorted(st.groups[b], mu)
	st.assign[mu] = b
	st.vals[a] = va
	st.vals[b] = vb
	if st.aggs != nil {
		st.ge.add(st.aggs[a], mu, -1)
		st.ge.add(st.aggs[b], mu, +1)
	}
}

func (st *searchState) score() score {
	sc := score{min: 1}
	for s, g := range st.groups {
		if len(g) == 0 {
			continue
		}
		sc.sum += st.vals[s]
		if st.vals[s] < sc.min {
			sc.min = st.vals[s]
		}
	}
	return sc
}

// scoreWith computes the score if sorts a and b had values va and vb.
func (st *searchState) scoreWith(a int, va float64, emptyA bool, b int, vb float64) score {
	sc := score{min: 1}
	for s, g := range st.groups {
		var val float64
		switch s {
		case a:
			if emptyA {
				continue
			}
			val = va
		case b:
			val = vb
		default:
			if len(g) == 0 {
				continue
			}
			val = st.vals[s]
		}
		sc.sum += val
		if val < sc.min {
			sc.min = val
		}
	}
	return sc
}

// remove returns group g without signature mu (preserving order).
func remove(g []int, mu int) []int {
	out := make([]int, 0, len(g)-1)
	for _, x := range g {
		if x != mu {
			out = append(out, x)
		}
	}
	return out
}

// insertSorted returns group g with mu inserted in ascending order.
func insertSorted(g []int, mu int) []int {
	i := sort.SearchInts(g, mu)
	out := make([]int, 0, len(g)+1)
	out = append(out, g[:i]...)
	out = append(out, mu)
	return append(out, g[i:]...)
}

// localSearch runs steepest-ascent relocation moves until a local
// optimum, the iteration cap, or cancellation.
func (st *searchState) localSearch(maxIters int, cancel <-chan struct{}) error {
	n := len(st.assign)
	generic := st.aggs == nil
	for iter := 0; iter < maxIters; iter++ {
		if canceled(cancel) {
			return ErrCanceled
		}
		curSc := st.score()
		bestSc := curSc
		bestMu, bestSort := -1, -1
		var bestVA, bestVB float64
		for mu := 0; mu < n; mu++ {
			a := st.assign[mu]
			var ga []int
			if generic {
				ga = remove(st.groups[a], mu)
			}
			va, err := st.evalRemove(a, mu, ga)
			if err != nil {
				return err
			}
			emptyA := len(st.groups[a]) == 1
			for b := 0; b < st.k; b++ {
				if b == a {
					continue
				}
				var gb []int
				if generic {
					gb = insertSorted(st.groups[b], mu)
				}
				vb, err := st.evalInsert(b, mu, gb)
				if err != nil {
					return err
				}
				sc := st.scoreWith(a, va, emptyA, b, vb)
				if sc.better(bestSc) {
					bestSc = sc
					bestMu, bestSort = mu, b
					bestVA, bestVB = va, vb
				}
			}
		}
		if bestMu < 0 {
			return nil
		}
		st.apply(bestMu, bestSort, bestVA, bestVB)
	}
	return nil
}

// greedySeed assigns signatures in decreasing size order, each to the
// sort that yields the best interim score, evaluating only the
// receiving sort per candidate.
func greedySeed(ge *groupEval, k int) (Assignment, error) {
	n := ge.view.NumSignatures()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return ge.count[order[a]] > ge.count[order[b]] })

	assign := make(Assignment, n)
	groups := make([][]int, k)
	vals := make([]float64, k)
	used := 0
	var aggs []*agg
	if ge.incremental() {
		aggs = make([]*agg, k)
		for s := range aggs {
			aggs[s] = ge.newAgg(nil)
		}
	}
	// evalWith scores sort s with mu added.
	evalWith := func(s, mu int) (float64, error) {
		if aggs != nil {
			return ge.valueWith(aggs[s], mu, +1), nil
		}
		return ge.eval(insertSorted(groups[s], mu))
	}
	for _, mu := range order {
		// Placing into any currently-empty sort is symmetric; try only
		// the first one.
		maxTry := used + 1
		if maxTry > k {
			maxTry = k
		}
		bestSort, bestSc := 0, score{min: -1}
		var bestVal float64
		for s := 0; s < maxTry; s++ {
			val, err := evalWith(s, mu)
			if err != nil {
				return nil, err
			}
			// Interim score over placed signatures.
			sc := score{min: 1}
			for q := 0; q < k; q++ {
				var qv float64
				if q == s {
					qv = val
				} else if len(groups[q]) == 0 {
					continue
				} else {
					qv = vals[q]
				}
				sc.sum += qv
				if qv < sc.min {
					sc.min = qv
				}
			}
			if sc.better(bestSc) {
				bestSc = sc
				bestSort = s
				bestVal = val
			}
		}
		if len(groups[bestSort]) == 0 {
			used++
		}
		groups[bestSort] = insertSorted(groups[bestSort], mu)
		vals[bestSort] = bestVal
		assign[mu] = bestSort
		if aggs != nil {
			ge.add(aggs[bestSort], mu, +1)
		}
	}
	return assign, nil
}

// mergeSeed builds an assignment agglomeratively: every signature set
// starts as its own sort (σ = 1 for all built-in measures), then the
// pair of sorts whose merge keeps the highest σ is merged until at most
// k sorts remain. This seed directly targets the lowest-k problem: it
// trades sort count against structuredness one merge at a time.
func mergeSeed(ge *groupEval, k int) (Assignment, error) {
	n := ge.view.NumSignatures()
	groups := make([][]int, 0, n)
	for mu := 0; mu < n; mu++ {
		groups = append(groups, []int{mu})
	}
	// Each group keeps its aggregate and its live-column list (the
	// columns with N_p > 0), so a merge is scored and applied in
	// O(min live) rather than O(|P|).
	var aggs []*agg
	var live [][]int
	if ge.incremental() {
		aggs = make([]*agg, n)
		live = make([][]int, n)
		for mu := 0; mu < n; mu++ {
			aggs[mu] = ge.newAgg(groups[mu])
			live[mu] = append([]int(nil), ge.support[mu]...)
		}
	}
	// evalPair scores the merge of groups i and j: the group with fewer
	// live columns is folded into the other, scored and folded back out.
	// Every aggregate is additive over disjoint subject sets and the
	// union's moments do not depend on the fold direction, so the score
	// is the exact value of the merged group.
	evalPair := func(i, j int) (float64, error) {
		if aggs == nil {
			return ge.eval(mergeSorted(groups[i], groups[j]))
		}
		if len(live[i]) > len(live[j]) {
			i, j = j, i
		}
		ge.fold(aggs[j], aggs[i], live[i], +1)
		v := ge.value(aggs[j])
		ge.fold(aggs[j], aggs[i], live[i], -1)
		return v, nil
	}
	// Merge-score cache: a round's merge only changes scores involving
	// the merged group, so the (i, j) score matrix is computed once and
	// then delta-maintained — O(n²) evaluations across the whole
	// agglomeration instead of O(n³). The cached entries are the exact
	// float64 values evalPair produces and the argmax scan below visits
	// them in the same (i ascending, j ascending, strictly-greater)
	// order as a full rescan, so the merge sequence — and therefore the
	// seed — is bit-identical to the uncached loop. Above the size cap
	// the quadratic matrix isn't worth its memory and the rescan loop
	// runs as before.
	const mergeCacheMaxN = 2048
	var cache [][]float64 // cache[i][j], j > i only
	if n := len(groups); n > k && n <= mergeCacheMaxN {
		cache = make([][]float64, n)
		for i := range cache {
			cache[i] = make([]float64, n)
			for j := i + 1; j < n; j++ {
				val, err := evalPair(i, j)
				if err != nil {
					return nil, err
				}
				cache[i][j] = val
			}
		}
	}
	for len(groups) > k {
		bestI, bestJ, bestVal := -1, -1, -1.0
		for i := 0; i < len(groups); i++ {
			for j := i + 1; j < len(groups); j++ {
				var val float64
				if cache != nil {
					val = cache[i][j]
				} else {
					var err error
					val, err = evalPair(i, j)
					if err != nil {
						return nil, err
					}
				}
				if val > bestVal {
					bestVal = val
					bestI, bestJ = i, j
				}
			}
		}
		groups[bestI] = mergeSorted(groups[bestI], groups[bestJ])
		groups = append(groups[:bestJ], groups[bestJ+1:]...)
		if aggs != nil {
			for _, p := range live[bestJ] {
				if aggs[bestI].counts[p] == 0 {
					live[bestI] = append(live[bestI], p)
				}
			}
			ge.fold(aggs[bestI], aggs[bestJ], live[bestJ], +1)
			aggs = append(aggs[:bestJ], aggs[bestJ+1:]...)
			live = append(live[:bestJ], live[bestJ+1:]...)
		}
		if cache != nil {
			// Drop row/column bestJ (mirroring the groups deletion), then
			// refresh every score involving the merged group bestI from
			// its updated aggregates.
			cache = append(cache[:bestJ], cache[bestJ+1:]...)
			for i := range cache {
				cache[i] = append(cache[i][:bestJ], cache[i][bestJ+1:]...)
			}
			for j := range groups {
				if j == bestI {
					continue
				}
				lo, hi := bestI, j
				if lo > hi {
					lo, hi = hi, lo
				}
				val, err := evalPair(lo, hi)
				if err != nil {
					return nil, err
				}
				cache[lo][hi] = val
			}
		}
	}
	assign := make(Assignment, n)
	for s, g := range groups {
		for _, mu := range g {
			assign[mu] = s
		}
	}
	return assign, nil
}

// mergeSorted merges two ascending index lists.
func mergeSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// profileSeed clusters signatures around k random centroids by Hamming
// distance on their property bit vectors — a structural seed that often
// lands near "schema-shaped" partitions.
func profileSeed(v *matrix.View, k int, rng *rand.Rand) Assignment {
	n := v.NumSignatures()
	sigs := v.Signatures()
	assign := make(Assignment, n)
	if n == 0 {
		return assign
	}
	centroids := rng.Perm(n)
	if len(centroids) > k {
		centroids = centroids[:k]
	}
	for mu := range assign {
		best, bestD := 0, 1<<30
		for ci, c := range centroids {
			d := bitset.HammingBits(sigs[mu].Bits, sigs[c].Bits)
			if d < bestD {
				bestD = d
				best = ci
			}
		}
		assign[mu] = best
	}
	return assign
}
