// Package matrix implements the property-structure view M(D) of an RDF
// graph (Section 2.1 of the paper): the |S(D)|×|P(D)| 0/1 matrix
// recording which subject has which property, compressed into signature
// sets (Definition 4.1). The signature representation is the paper's
// key scalability lever: DBpedia Persons (790,703 subjects) compresses
// to 64 signatures.
package matrix

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/rdf"
	"repro/internal/term"
)

// Signature is a distinct row pattern of M(D) together with the set of
// subjects exhibiting it (a "signature set").
type Signature struct {
	// Bits has one bit per property column (view order). The container
	// representation (dense words or compressed sorted indices) is an
	// implementation detail chosen per signature by the bitset cost
	// model; every observable — key, iteration order, String — is
	// identical across representations.
	Bits bitset.Bits
	// Count is the signature set size (number of subjects).
	Count int
	// Subjects holds the subject URIs in this signature set, sorted.
	// May be nil when a view is built synthetically from counts alone.
	Subjects []string
}

// Support returns the property column indices set in the signature.
func (sg Signature) Support() []int { return sg.Bits.Indices() }

// View is the signature-compressed property-structure view of a
// dataset. Construct with FromGraph, a Builder or New. Signatures are
// ordered by decreasing Count (ties broken by bit pattern) as in the
// paper's figures.
type View struct {
	props     []string
	propIndex map[string]int
	sigs      []Signature
	subjects  int

	// Lazily memoized aggregates. Views are immutable after
	// construction and evaluated concurrently by the parallel
	// refinement engine, so the caches are guarded by sync.Once.
	onesOnce  sync.Once
	ones      int64
	pcOnce    sync.Once
	pcCache   []int64
	pairOnce  sync.Once
	pairCache *PairCounts
	// pairBytes is the built aggregate's footprint, published at the end
	// of the pairOnce build. Storage accounting reads it instead of
	// pairCache so it never races an in-flight build.
	pairBytes atomic.Int64
}

// Options configures view construction.
type Options struct {
	// IgnoreProperties are predicate URIs excluded from the view's
	// columns (e.g. rdf:type, which the paper excludes from the
	// experiments' property counts, and the RDF-syntax properties
	// excluded in Section 7.4).
	IgnoreProperties []string
	// KeepSubjects controls whether subject URIs are retained per
	// signature (needed to materialize partitions back into RDF graphs).
	KeepSubjects bool
}

// FromGraph builds the view of g. By default rdf:type is excluded from
// the property columns, matching the paper's dataset descriptions
// ("8 properties (excluding the type property)"). It feeds g's
// (subject, predicate) pairs through a Builder, so a graph and a
// streamed dump group their signatures on one path.
func FromGraph(g *rdf.Graph, opts Options) *View {
	b := NewBuilder(g.Dict(), opts)
	g.EachTripleID(func(t rdf.IDTriple) { b.Add(t.S, t.P) })
	return b.View(nil)
}

// Builder folds (subject, predicate) presence pairs into a view, row by
// row, without keeping the triples: a repeated pair sets the same cell
// and objects never change one. Each subject's row is a bit word over
// the predicates in first-seen order; View maps those bits onto the
// name-sorted columns FromGraph has always produced.
type Builder struct {
	dict  *term.Dict
	opts  Options
	slots []termSlot // by term ID
	subjs []term.ID  // row → subject ID, first-seen order
	preds []term.ID  // bit → predicate ID, first-seen order
	// words holds row r's predicate bits at words[r*stride:(r+1)*stride];
	// stride doubles, re-laying out every row, when a new predicate
	// outgrows it. One flat array keeps the fold free of per-subject
	// allocations.
	words  []uint64
	stride int
}

// termSlot is a term's row and predicate bit, each offset by one so
// that the zero value means "not seen in that position".
type termSlot struct{ row, bit int32 }

// NewBuilder returns an empty builder whose term IDs resolve in dict.
func NewBuilder(dict *term.Dict, opts Options) *Builder {
	return &Builder{dict: dict, opts: opts, stride: 1}
}

func (b *Builder) slot(id term.ID) *termSlot {
	if int(id) >= len(b.slots) {
		n := max(int(id)+1, 2*len(b.slots))
		b.slots = append(b.slots, make([]termSlot, n-len(b.slots))...)
	}
	return &b.slots[id]
}

// Add records that subject s has predicate p.
func (b *Builder) Add(s, p term.ID) {
	ps := b.slot(p)
	if ps.bit == 0 {
		b.preds = append(b.preds, p)
		ps.bit = int32(len(b.preds))
		if len(b.preds) > 64*b.stride {
			b.widen()
		}
	}
	bit := int(ps.bit - 1)
	ss := b.slot(s)
	if ss.row == 0 {
		b.subjs = append(b.subjs, s)
		ss.row = int32(len(b.subjs))
		for i := 0; i < b.stride; i++ {
			b.words = append(b.words, 0)
		}
	}
	b.words[int(ss.row-1)*b.stride+bit>>6] |= 1 << (bit & 63)
}

func (b *Builder) widen() {
	w := make([]uint64, 2*b.stride*len(b.subjs))
	for r := range b.subjs {
		copy(w[2*b.stride*r:], b.row(r))
	}
	b.words, b.stride = w, 2*b.stride
}

func (b *Builder) row(r int) []uint64 { return b.words[r*b.stride : (r+1)*b.stride] }

// View returns the view of the subjects keep accepts (nil keeps every
// subject). Its columns are the predicates those subjects use, minus
// rdf:type and Options.IgnoreProperties, sorted by name; subjects whose
// only predicates are ignored still count, with an all-zero signature.
func (b *Builder) View(keep func(s term.ID) bool) *View {
	var rows []int
	used := make([]uint64, b.stride)
	for r, s := range b.subjs {
		if keep == nil || keep(s) {
			rows = append(rows, r)
			for i, w := range b.row(r) {
				used[i] |= w
			}
		}
	}
	ignore := map[term.ID]bool{}
	for _, p := range append([]string{rdf.TypeURI}, b.opts.IgnoreProperties...) {
		if id, ok := b.dict.Lookup(p); ok {
			ignore[id] = true
		}
	}
	// Materialize each column name once and order columns by name.
	type pcol struct {
		name string
		bit  int
	}
	var cols []pcol
	for bit, id := range b.preds {
		if used[bit>>6]&(1<<(bit&63)) != 0 && !ignore[id] {
			cols = append(cols, pcol{name: b.dict.String(id), bit: bit})
		}
	}
	sort.Slice(cols, func(i, j int) bool { return cols[i].name < cols[j].name })
	var props []string
	if len(cols) > 0 {
		props = make([]string, len(cols))
	}
	propIndex := make(map[string]int, len(cols))
	colOf := make([]int, len(b.preds))
	for i := range colOf {
		colOf[i] = -1
	}
	for i, c := range cols {
		props[i] = c.name
		propIndex[c.name] = i
		colOf[c.bit] = i
	}

	type group struct {
		bits     bitset.Bits
		subjects []term.ID
	}
	groups := map[string]*group{}
	// One scratch signature and key buffer serve the whole grouping
	// loop: the map is probed without materializing a key string, and
	// the bits are only compressed into a retained container for a
	// pattern never seen before. On wide schemas the retained form is
	// the sorted-index container, so live memory tracks Σ|supp|, not
	// |Λ|·|P|/8.
	scratch := bitset.New(len(props))
	var keyBuf []byte
	for _, r := range rows {
		scratch.Reset()
		for i, w := range b.row(r) {
			for ; w != 0; w &= w - 1 {
				if c := colOf[64*i+bits.TrailingZeros64(w)]; c >= 0 {
					scratch.Set(c)
				}
			}
		}
		keyBuf = scratch.AppendKey(keyBuf[:0])
		gr := groups[string(keyBuf)]
		if gr == nil {
			gr = &group{bits: bitset.Compress(scratch)}
			groups[string(keyBuf)] = gr
		}
		gr.subjects = append(gr.subjects, b.subjs[r])
	}

	// Subject names come from one copy of the dictionary's table: a
	// String call per subject would take the dictionary's lock for every
	// term interned since its last publish.
	var names []string
	if b.opts.KeepSubjects {
		names = b.dict.StringsFrom(0)
	}
	sigs := make([]Signature, 0, len(groups))
	for _, gr := range groups {
		sg := Signature{Bits: gr.bits, Count: len(gr.subjects)}
		if b.opts.KeepSubjects {
			subs := make([]string, len(gr.subjects))
			for i, id := range gr.subjects {
				subs[i] = names[id]
			}
			sort.Strings(subs)
			sg.Subjects = subs
		}
		sigs = append(sigs, sg)
	}
	v := &View{props: props, propIndex: propIndex, sigs: sigs, subjects: len(rows)}
	v.sortSigs()
	return v
}

// New builds a view directly from property names and signatures — used
// by generators and by partition operations. Signature bit sets must
// have capacity len(props). Counts must be positive.
func New(props []string, sigs []Signature) (*View, error) {
	propIndex, total, err := checkSignatures(props, sigs)
	if err != nil {
		return nil, err
	}
	merged := map[string]*Signature{}
	order := []string{}
	for _, sg := range sigs {
		// The canonical key is representation-independent, so inputs
		// mixing dense and compressed containers for the same pattern
		// merge correctly.
		k := sg.Bits.Key()
		if prev, ok := merged[k]; ok {
			prev.Count += sg.Count
			prev.Subjects = append(prev.Subjects, sg.Subjects...)
		} else {
			cp := Signature{Bits: bitset.CloneBits(sg.Bits), Count: sg.Count}
			cp.Subjects = append(cp.Subjects, sg.Subjects...)
			merged[k] = &cp
			order = append(order, k)
		}
	}
	out := make([]Signature, 0, len(merged))
	for _, k := range order {
		out = append(out, *merged[k])
	}
	v := &View{props: props, propIndex: propIndex, sigs: out, subjects: total}
	v.sortSigs()
	return v, nil
}

// NewDistinct builds a view from signatures known to have pairwise
// distinct bit patterns — the invariant the incremental engine
// maintains per epoch — skipping New's merge pass and key
// materialization, so snapshot construction is O(signatures · |P|/64).
// The signature structs (bit sets and subject slices included) are
// taken over by the view, not cloned; callers must hand over fresh
// copies and never mutate them afterwards.
func NewDistinct(props []string, sigs []Signature) (*View, error) {
	propIndex, total, err := checkSignatures(props, sigs)
	if err != nil {
		return nil, err
	}
	v := &View{props: props, propIndex: propIndex, sigs: sigs, subjects: total}
	v.sortSigs()
	return v, nil
}

// checkSignatures validates New's and NewDistinct's input and returns
// the column index and the subject total.
func checkSignatures(props []string, sigs []Signature) (map[string]int, int, error) {
	propIndex := make(map[string]int, len(props))
	for i, p := range props {
		if _, dup := propIndex[p]; dup {
			return nil, 0, fmt.Errorf("matrix: duplicate property %q", p)
		}
		propIndex[p] = i
	}
	total := 0
	for _, sg := range sigs {
		if sg.Bits == nil {
			return nil, 0, fmt.Errorf("matrix: nil signature bits")
		}
		if sg.Bits.Len() != len(props) {
			return nil, 0, fmt.Errorf("matrix: signature capacity %d != %d properties", sg.Bits.Len(), len(props))
		}
		if sg.Count <= 0 {
			return nil, 0, fmt.Errorf("matrix: non-positive signature count %d", sg.Count)
		}
		if sg.Subjects != nil && len(sg.Subjects) != sg.Count {
			return nil, 0, fmt.Errorf("matrix: %d subjects but count %d", len(sg.Subjects), sg.Count)
		}
		total += sg.Count
	}
	return propIndex, total, nil
}

// MergeViews merges the views of subject-disjoint datasets at the
// signature level: the property columns are the sorted union of the
// inputs' columns, signatures with the same remapped bit pattern merge
// by summing their multiplicities, and KeepSubjects lists concatenate
// (re-sorted per merged signature). Because every subject's signature
// lives wholly in one input, the result is bit-identical to FromGraph
// on the union triple set — same columns, same signature order, same
// counts, same subject lists — so refinement and warm-start run
// unchanged on merged snapshots. This is the associative-array merge
// the sharded live engine (internal/incr) relies on.
//
// A single input is returned as-is (the degenerate merge). Inputs must
// either all carry subject lists or none (matching construction from a
// shared Options); a mixed merge fails NewDistinct's count validation.
func MergeViews(views ...*View) (*View, error) {
	if len(views) == 1 {
		return views[0], nil
	}
	nameSet := map[string]struct{}{}
	for _, v := range views {
		for _, p := range v.props {
			nameSet[p] = struct{}{}
		}
	}
	names := make([]string, 0, len(nameSet))
	for n := range nameSet {
		names = append(names, n)
	}
	sort.Strings(names)
	nameIdx := make(map[string]int, len(names))
	for i, n := range names {
		nameIdx[n] = i
	}

	// Merge signatures by remapped bit pattern. Multiplicities add and
	// subject lists concatenate; both are exact under subject-disjoint
	// inputs. The remapped support is kept as an index list and only
	// materialized into a container (adaptive representation) for
	// patterns never seen before, so a wide-schema merge never allocates
	// |P|-wide scratch per signature.
	type acc struct {
		bits     bitset.Bits
		count    int
		subjects []string
		hasSubs  bool
	}
	merged := map[string]*acc{}
	var order []string // deterministic iteration for reproducible builds
	var keyBuf []byte
	var idxBuf []int
	for _, v := range views {
		remap := make([]int, len(v.props))
		for i, p := range v.props {
			remap[i] = nameIdx[p]
		}
		for _, sg := range v.sigs {
			idxBuf = idxBuf[:0]
			sg.Bits.ForEach(func(i int) { idxBuf = append(idxBuf, remap[i]) })
			// Views built by FromGraph/buildView list properties in
			// sorted name order, making remap monotone; New accepts
			// arbitrary column orders, so re-sort when needed.
			if !sort.IntsAreSorted(idxBuf) {
				sort.Ints(idxBuf)
			}
			keyBuf = bitset.AppendSortedIndicesKey(keyBuf[:0], len(names), idxBuf)
			a := merged[string(keyBuf)]
			if a == nil {
				a = &acc{bits: bitset.FromSortedIndices(len(names), idxBuf)}
				merged[string(keyBuf)] = a
				order = append(order, string(keyBuf))
			}
			a.count += sg.Count
			if sg.Subjects != nil {
				a.hasSubs = true
				a.subjects = append(a.subjects, sg.Subjects...)
			}
		}
	}
	sigs := make([]Signature, 0, len(merged))
	for _, k := range order {
		a := merged[k]
		sg := Signature{Bits: a.bits, Count: a.count}
		if a.hasSubs {
			sort.Strings(a.subjects)
			sg.Subjects = a.subjects
		}
		sigs = append(sigs, sg)
	}
	return NewDistinct(names, sigs)
}

func (v *View) sortSigs() {
	sort.Slice(v.sigs, func(i, j int) bool {
		if v.sigs[i].Count != v.sigs[j].Count {
			return v.sigs[i].Count > v.sigs[j].Count
		}
		// CompareBits orders exactly as comparing String() renderings
		// but without materializing two |P|-byte strings per probe —
		// the former tie-break dominated sort cost on wide schemas.
		return bitset.CompareBits(v.sigs[i].Bits, v.sigs[j].Bits) > 0
	})
}

// Properties returns the property columns in view order.
func (v *View) Properties() []string { return v.props }

// PropertyIndex returns the column of property p and whether it exists.
func (v *View) PropertyIndex(p string) (int, bool) {
	i, ok := v.propIndex[p]
	return i, ok
}

// Signatures returns the signature sets in decreasing size order.
func (v *View) Signatures() []Signature { return v.sigs }

// NumSignatures returns |Λ(D)|.
func (v *View) NumSignatures() int { return len(v.sigs) }

// NumSubjects returns |S(D)|.
func (v *View) NumSubjects() int { return v.subjects }

// NumProperties returns the number of property columns.
func (v *View) NumProperties() int { return len(v.props) }

// PropertyCounts returns N_p for each column: the number of subjects
// having each property. The slice is computed once and cached; callers
// must treat it as read-only.
func (v *View) PropertyCounts() []int64 {
	v.pcOnce.Do(func() {
		counts := make([]int64, len(v.props))
		for _, sg := range v.sigs {
			c := int64(sg.Count)
			sg.Bits.ForEach(func(i int) { counts[i] += c })
		}
		v.pcCache = counts
	})
	return v.pcCache
}

// UsedProperties returns the number of columns with at least one
// subject, i.e. |P(D)| of the sub-dataset the view represents. For a
// full dataset this equals NumProperties; for a partition element it
// can be smaller (the paper's U_{i,p} variables).
func (v *View) UsedProperties() int {
	used := 0
	for _, c := range v.PropertyCounts() {
		if c > 0 {
			used++
		}
	}
	return used
}

// Ones returns ΣspM(D)sp: the total number of 1 entries. The value is
// computed once and cached.
func (v *View) Ones() int64 {
	v.onesOnce.Do(func() {
		var total int64
		for _, sg := range v.sigs {
			total += int64(sg.Bits.Count()) * int64(sg.Count)
		}
		v.ones = total
	})
	return v.ones
}

// PairCounts is the pairwise co-occurrence aggregate of a view: an
// associative-array style |P|×|P| matrix whose (i, j) entry is the
// number of subjects having both property columns i and j, with the
// per-property counts N_p on the diagonal. Together with the N_p vector
// and |S| it determines every two-variable measure of the rule language
// in closed form — the compiled σ-evaluators in internal/rules read
// nothing else.
//
// Storage is adaptive: up to pairPlaneMaxProps columns the matrix is a
// dense row-major plane (O(1) reads, word-parallel dense build
// available); above that — where the plane would cost 8·|P|² bytes,
// 3.2 GB at |P| = 20k — it is a symmetric CSR holding only the
// non-zero co-occurrences, read by binary search within a row. Both
// forms hold exactly the same entries.
type PairCounts struct {
	v *View
	c []int64 // dense |P|×|P| row-major, symmetric; nil in CSR mode
	// CSR mode: row i's non-zeros are cols/vals[rowStart[i]:rowStart[i+1]],
	// cols sorted ascending within each row. Symmetric entries are stored
	// on both rows so Both needs a single row probe.
	rowStart []int32
	cols     []int32
	vals     []int64
}

// pairPlaneMaxProps is the widest schema for which the dense |P|² plane
// is still the right pair storage (8 MB at the boundary). Above it the
// plane's zeros dominate: paper-shaped wide datasets co-occur only
// O(Σ|supp|²) pairs out of |P|² possible.
const pairPlaneMaxProps = 1024

// usePairCSR applies the storage policy on top of the plane bound.
func usePairCSR(n int) bool {
	switch bitset.CurrentPolicy() {
	case bitset.PolicyDense:
		return false
	case bitset.PolicySparse:
		return true
	}
	return n > pairPlaneMaxProps
}

// NumProperties returns the number of property columns.
func (pc *PairCounts) NumProperties() int { return len(pc.v.props) }

// Both returns the number of subjects having both column i and column j.
func (pc *PairCounts) Both(i, j int) int64 {
	if pc.c != nil {
		return pc.c[i*len(pc.v.props)+j]
	}
	lo, hi := pc.rowStart[i], pc.rowStart[i+1]
	row := pc.cols[lo:hi]
	k := sort.Search(len(row), func(k int) bool { return row[k] >= int32(j) })
	if k < len(row) && row[k] == int32(j) {
		return pc.vals[int(lo)+k]
	}
	return 0
}

// Column resolves a property name to its column index, implementing the
// name-keyed half of the rules-layer PairCounts contract.
func (pc *PairCounts) Column(p string) (int, bool) { return pc.v.PropertyIndex(p) }

// MemSize estimates the aggregate's heap footprint in bytes.
func (pc *PairCounts) MemSize() int64 {
	if pc.c != nil {
		return int64(len(pc.c)) * 8
	}
	return int64(len(pc.rowStart))*4 + int64(len(pc.cols))*4 + int64(len(pc.vals))*8
}

// PairCounts returns the view's pairwise co-occurrence aggregate,
// computed once and cached (sync.Once-guarded like Ones and
// PropertyCounts, so concurrent evaluators share one build).
//
// In plane mode two build strategies produce identical matrices and the
// cheaper one is picked by a cost model: the sparse path makes one pass
// over the signatures accumulating every support pair (O(Σ|supp|²)),
// while the dense path transposes the view into per-column
// signature-incidence bit vectors plus count bit-planes and fills each
// entry word-parallel with bitset.AndCount3
// (O(|P|²·log(max count)·|Λ|/64)). The measured crossover is recorded
// in EXPERIMENTS.md. In CSR mode only the support-pair pass applies —
// its output is the non-zero set itself.
func (v *View) PairCounts() *PairCounts {
	v.pairOnce.Do(func() {
		n := len(v.props)
		pc := &PairCounts{v: v}
		if usePairCSR(n) {
			v.buildPairsCSR(pc)
			v.pairBytes.Store(pc.MemSize())
			v.pairCache = pc
			return
		}
		pc.c = make([]int64, n*n)
		var sparseOps, maxCount int64
		for _, sg := range v.sigs {
			s := int64(sg.Bits.Count())
			sparseOps += s * s
			if int64(sg.Count) > maxCount {
				maxCount = int64(sg.Count)
			}
		}
		planes := int64(bits.Len64(uint64(maxCount)))
		words := int64((len(v.sigs) + 63) / 64)
		// Calibrated on the BenchmarkPairCountsBuild shapes (see
		// EXPERIMENTS.md): a sparse support-pair step retires in ~0.8 ns,
		// a dense AndCount3 probe costs ~4 ns fixed plus ~1.1 ns per
		// signature word — so the dense path only wins once the
		// signature count is large enough to amortize the per-pair
		// overhead (hundreds of signatures for paper-shaped supports).
		denseCost := int64(n) * int64(n+1) / 2 * planes * (40 + 11*words)
		if n > 0 && denseCost < 8*sparseOps {
			v.buildPairsDense(pc, int(maxCount))
		} else {
			v.buildPairsSparse(pc)
		}
		v.pairBytes.Store(pc.MemSize())
		v.pairCache = pc
	})
	return v.pairCache
}

// buildPairsSparse accumulates support pairs in one pass over the
// signatures.
func (v *View) buildPairsSparse(pc *PairCounts) {
	n := len(v.props)
	var idx []int
	for _, sg := range v.sigs {
		idx = sg.Bits.AppendIndices(idx[:0])
		c := int64(sg.Count)
		for _, i := range idx {
			row := pc.c[i*n : (i+1)*n]
			for _, j := range idx {
				row[j] += c
			}
		}
	}
}

// buildPairsCSR accumulates the same support pairs into a hash map of
// non-zero entries and lays them out as a sorted symmetric CSR. The
// entry values are identical to the plane build's — only zeros are
// elided — so every σ read through Both is bit-identical.
func (v *View) buildPairsCSR(pc *PairCounts) {
	n := len(v.props)
	acc := map[uint64]int64{}
	var idx []int
	for _, sg := range v.sigs {
		idx = sg.Bits.AppendIndices(idx[:0])
		c := int64(sg.Count)
		for _, i := range idx {
			base := uint64(i) << 32
			for _, j := range idx {
				acc[base|uint64(j)] += c
			}
		}
	}
	rowLen := make([]int32, n+1)
	for k := range acc {
		rowLen[int(k>>32)+1]++
	}
	for i := 0; i < n; i++ {
		rowLen[i+1] += rowLen[i]
	}
	pc.rowStart = rowLen
	pc.cols = make([]int32, len(acc))
	pc.vals = make([]int64, len(acc))
	next := make([]int32, n)
	for k, c := range acc {
		i, j := int(k>>32), int32(uint32(k))
		at := pc.rowStart[i] + next[i]
		next[i]++
		pc.cols[at] = j
		pc.vals[at] = c
	}
	// Map iteration is unordered; sort each row's (col, val) pairs.
	for i := 0; i < n; i++ {
		lo, hi := pc.rowStart[i], pc.rowStart[i+1]
		cols, vals := pc.cols[lo:hi], pc.vals[lo:hi]
		sort.Sort(&csrRow{cols, vals})
	}
}

type csrRow struct {
	cols []int32
	vals []int64
}

func (r *csrRow) Len() int           { return len(r.cols) }
func (r *csrRow) Less(i, j int) bool { return r.cols[i] < r.cols[j] }
func (r *csrRow) Swap(i, j int) {
	r.cols[i], r.cols[j] = r.cols[j], r.cols[i]
	r.vals[i], r.vals[j] = r.vals[j], r.vals[i]
}

// buildPairsDense fills the matrix from per-column signature-incidence
// vectors and count bit-planes: entry (i, j) is
// Σ_b 2^b·|{μ : i,j ∈ supp(μ) ∧ bit b of Count(μ)}|, computed with
// word-parallel three-way intersection popcounts.
func (v *View) buildPairsDense(pc *PairCounts, maxCount int) {
	n := len(v.props)
	nSigs := len(v.sigs)
	colSigs := make([]bitset.Set, n)
	for i := range colSigs {
		colSigs[i] = bitset.New(nSigs)
	}
	planes := make([]bitset.Set, bits.Len64(uint64(maxCount)))
	for b := range planes {
		planes[b] = bitset.New(nSigs)
	}
	for mu, sg := range v.sigs {
		sg.Bits.ForEach(func(i int) { colSigs[i].Set(mu) })
		for b := range planes {
			if sg.Count>>uint(b)&1 == 1 {
				planes[b].Set(mu)
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			var tot int64
			for b, plane := range planes {
				tot += int64(bitset.AndCount3(colSigs[i], colSigs[j], plane)) << uint(b)
			}
			pc.c[i*n+j] = tot
			pc.c[j*n+i] = tot
		}
	}
}

// Subset returns a new view containing only the signatures at the given
// indices (into Signatures()). The property columns are preserved, so
// subset views of the same parent are column-compatible; UsedProperties
// reflects the subset. Passing indices in ascending order preserves the
// parent's size ordering (the common case — assignment group lists are
// built in ascending order); no re-sort is performed, keeping Subset
// cheap enough for inner-loop use by the local-search engine. Panics on
// out-of-range indices.
func (v *View) Subset(sigIdx []int) *View {
	sigs := make([]Signature, 0, len(sigIdx))
	total := 0
	for _, i := range sigIdx {
		sigs = append(sigs, v.sigs[i])
		total += v.sigs[i].Count
	}
	return &View{props: v.props, propIndex: v.propIndex, sigs: sigs, subjects: total}
}

// SignatureOf returns the index (into Signatures()) of the signature
// with the given bit pattern, or -1. The probe may use either
// container representation.
func (v *View) SignatureOf(bits bitset.Bits) int {
	for i, sg := range v.sigs {
		if bitset.EqualBits(sg.Bits, bits) {
			return i
		}
	}
	return -1
}

// StorageStats breaks down a view's signature-tier memory use — the
// observability surface behind /stats and the rdf_view_bytes gauge.
type StorageStats struct {
	// DenseSigs and SparseSigs count signatures by container kind.
	DenseSigs  int
	SparseSigs int
	// SigBytes estimates the signature containers' footprint.
	SigBytes int64
	// PairBytes is the built pair aggregate's footprint (0 before the
	// lazy build runs).
	PairBytes int64
}

// StorageStats returns the view's signature-storage breakdown. Safe to
// call concurrently with a PairCounts build.
func (v *View) StorageStats() StorageStats {
	var st StorageStats
	for _, sg := range v.sigs {
		if bitset.IsSparse(sg.Bits) {
			st.SparseSigs++
		} else {
			st.DenseSigs++
		}
		st.SigBytes += int64(sg.Bits.MemSize())
	}
	st.PairBytes = v.pairBytes.Load()
	return st
}

// MemSize estimates the view's total heap footprint in bytes:
// signature containers, property name table, and any built pair
// aggregate.
func (v *View) MemSize() int64 {
	st := v.StorageStats()
	var props int64
	for _, p := range v.props {
		props += int64(len(p)) + 16 // string header
	}
	return st.SigBytes + st.PairBytes + props
}

// String summarizes the view.
func (v *View) String() string {
	return fmt.Sprintf("view{%d subjects, %d properties, %d signatures}",
		v.subjects, len(v.props), len(v.sigs))
}

// Describe returns a multi-line human-readable summary listing the
// largest signature sets, used in figure reproductions.
func (v *View) Describe(maxSigs int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d subjects, %d properties, %d signature sets\n",
		v.subjects, len(v.props), len(v.sigs))
	for i, sg := range v.sigs {
		if i >= maxSigs {
			fmt.Fprintf(&b, "  … %d more signature sets\n", len(v.sigs)-maxSigs)
			break
		}
		fmt.Fprintf(&b, "  %s  ×%d\n", sg.Bits.String(), sg.Count)
	}
	return b.String()
}
