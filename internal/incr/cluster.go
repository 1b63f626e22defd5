package incr

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"repro/internal/rules"
)

// This file is the engine half of the cluster contract with
// internal/cluster: an epoch-cut export of the live σ-aggregates in a
// canonical, name-keyed form that a coordinator can merge exactly
// across nodes with the PR 5 primitives (rules.CountTracker.Merge,
// rules.PairTracker.Merge). Column indices are shard- and node-local,
// so the wire form re-keys everything by sorted active property name —
// the only identity that survives crossing a process boundary.

// AggregateExport is one node's live σ-aggregate state at an epoch
// cut, compacted to its active (non-retired) property columns in
// sorted-name order. Merging exports from subject-disjoint nodes is
// exact: every N_p, |S| unit and C[p1][p2] entry lives wholly on one
// node, so the cross-node aggregates are plain sums.
type AggregateExport struct {
	// Epoch is the exporting engine's (composite) epoch at the cut.
	Epoch uint64
	// Names are the active property names, sorted ascending — the
	// column space of Tracker and Pairs.
	Names []string
	// Tracker holds N_p per Names column, |S| and the 1-entry total.
	Tracker *rules.CountTracker
	// Pairs holds the co-occurrence matrix over Names; nil when pair
	// tracking is disabled (Options.DisablePairCounts).
	Pairs *rules.PairTracker
}

// exportAggregatesLocked compacts one dataset's aggregates into the
// sorted-active-name column space. Caller holds at least an RLock.
func (d *Dataset) exportAggregatesLocked() *AggregateExport {
	counts := d.tracker.Counts()
	names := make([]string, 0, len(d.props))
	for i, p := range d.props {
		if counts[i] > 0 {
			names = append(names, p)
		}
	}
	sort.Strings(names)
	nameIdx := make(map[string]int, len(names))
	for i, n := range names {
		nameIdx[n] = i
	}
	colMap := make([]int, len(d.props))
	for i, p := range d.props {
		if counts[i] > 0 {
			colMap[i] = nameIdx[p]
		} else {
			colMap[i] = -1
		}
	}
	ex := &AggregateExport{Epoch: d.epoch, Names: names, Tracker: rules.NewCountTracker(len(names))}
	ex.Tracker.Merge(d.tracker, colMap)
	if d.pairs != nil {
		ex.Pairs = rules.NewPairTracker(len(names))
		ex.Pairs.Merge(d.pairs, colMap)
	}
	return ex
}

// ExportAggregates returns the dataset's live aggregates at the
// current epoch, under one read cut.
func (d *Dataset) ExportAggregates() *AggregateExport {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.exportAggregatesLocked()
}

// ExportAggregates returns the merged aggregates of all shards under
// one all-shard read cut, at the composite epoch — the node-level
// state a cluster coordinator merges across nodes.
func (s *Sharded) ExportAggregates() *AggregateExport {
	if len(s.shards) == 1 {
		return s.shards[0].ExportAggregates()
	}
	s.rlockAll()
	defer s.runlockAll()
	return s.exportLocked(s.countsLocked(s.cutLocked()))
}

// exportLocked assembles the export from c's counts part plus a pair
// matrix merged from the shards' live trackers. The export is the
// caller's to mutate, so it gets copies of the cut's shared names and
// tracker. Caller holds all shard read locks at c.epoch.
func (s *Sharded) exportLocked(c *readCut) *AggregateExport {
	ex := &AggregateExport{Epoch: c.epoch, Names: slices.Clone(c.names), Tracker: c.tracker.Clone()}
	if !s.opts.DisablePairCounts {
		ex.Pairs = rules.NewPairTracker(len(c.names))
		for i, d := range s.shards {
			ex.Pairs.Merge(d.pairs, c.toMerged[i])
		}
	}
	return ex
}

// AggregateExporter is implemented by both engines; the serving tier's
// cluster-worker endpoints accept any engine through it.
type AggregateExporter interface {
	ExportAggregates() *AggregateExport
}

var (
	_ AggregateExporter = (*Dataset)(nil)
	_ AggregateExporter = (*Sharded)(nil)
)

// aggExportVersion guards the wire layout; bump on any format change
// so a mixed-version cluster fails loudly instead of mis-merging.
const aggExportVersion = 1

// AppendBinary appends a canonical encoding of the export to dst and
// returns the extended slice: version, epoch, the sorted names, then
// the tracker and (flagged) pair-tracker encodings, each
// length-prefixed, reusing the checkpoint codecs from internal/rules.
func (e *AggregateExport) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, aggExportVersion)
	dst = binary.AppendUvarint(dst, e.Epoch)
	dst = binary.AppendUvarint(dst, uint64(len(e.Names)))
	for _, n := range e.Names {
		dst = binary.AppendUvarint(dst, uint64(len(n)))
		dst = append(dst, n...)
	}
	tb := e.Tracker.AppendBinary(nil)
	dst = binary.AppendUvarint(dst, uint64(len(tb)))
	dst = append(dst, tb...)
	if e.Pairs == nil {
		dst = append(dst, 0)
	} else {
		dst = append(dst, 1)
		pb := e.Pairs.AppendBinary(nil)
		dst = binary.AppendUvarint(dst, uint64(len(pb)))
		dst = append(dst, pb...)
	}
	return dst
}

// DecodeAggregateExport decodes an AppendBinary encoding, validating
// that the tracker (and pair tracker, when present) cover exactly the
// named column space and that the names are sorted and distinct.
func DecodeAggregateExport(data []byte) (*AggregateExport, error) {
	r := exportReader{data: data}
	if ver := r.uvarint(); r.err == nil && ver != aggExportVersion {
		return nil, fmt.Errorf("incr: aggregate export version %d (want %d)", ver, aggExportVersion)
	}
	e := &AggregateExport{Epoch: r.uvarint()}
	nNames := int(r.uvarint())
	if r.err == nil && nNames > len(data) {
		return nil, fmt.Errorf("incr: aggregate export claims %d names in %d bytes", nNames, len(data))
	}
	e.Names = make([]string, 0, nNames)
	for i := 0; i < nNames && r.err == nil; i++ {
		n := r.str()
		if i > 0 && r.err == nil && n <= e.Names[i-1] {
			return nil, fmt.Errorf("incr: aggregate export names not sorted/distinct at %d", i)
		}
		e.Names = append(e.Names, n)
	}
	tb := r.bytes()
	if r.err != nil {
		return nil, fmt.Errorf("incr: aggregate export: %w", r.err)
	}
	var err error
	if e.Tracker, err = rules.DecodeCountTracker(tb); err != nil {
		return nil, fmt.Errorf("incr: aggregate export: %w", err)
	}
	if e.Tracker.NumProps() != len(e.Names) {
		return nil, fmt.Errorf("incr: aggregate export: tracker has %d columns, %d names",
			e.Tracker.NumProps(), len(e.Names))
	}
	switch flag := r.byte(); flag {
	case 0:
	case 1:
		pb := r.bytes()
		if r.err != nil {
			return nil, fmt.Errorf("incr: aggregate export pairs: %w", r.err)
		}
		if e.Pairs, err = rules.DecodePairTracker(pb); err != nil {
			return nil, fmt.Errorf("incr: aggregate export: %w", err)
		}
		if e.Pairs.NumProps() != len(e.Names) {
			return nil, fmt.Errorf("incr: aggregate export: pair tracker has %d columns, %d names",
				e.Pairs.NumProps(), len(e.Names))
		}
	default:
		if r.err == nil {
			return nil, fmt.Errorf("incr: aggregate export: bad pairs flag %d", flag)
		}
	}
	if r.err != nil {
		return nil, fmt.Errorf("incr: aggregate export: %w", r.err)
	}
	if r.rest() != 0 {
		return nil, fmt.Errorf("incr: aggregate export: %d trailing bytes", r.rest())
	}
	return e, nil
}

// MergeAggregateExports merges subject-disjoint node exports into one:
// union of the name spaces (sorted), summed trackers, and a summed
// pair tracker when every input carries one (pairsOK reports that; a
// single node without pair tracking disables exact pair reads for the
// merged result, mirroring Sharded.SigmaPairs).
func MergeAggregateExports(exports []*AggregateExport) (merged *AggregateExport, pairsOK bool) {
	if len(exports) == 1 {
		return exports[0], exports[0].Pairs != nil
	}
	nameSet := map[string]struct{}{}
	var epoch uint64
	pairsOK = true
	for _, e := range exports {
		epoch += e.Epoch
		for _, n := range e.Names {
			nameSet[n] = struct{}{}
		}
		if e.Pairs == nil {
			pairsOK = false
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
	out := &AggregateExport{Epoch: epoch, Names: names, Tracker: rules.NewCountTracker(len(names))}
	if pairsOK {
		out.Pairs = rules.NewPairTracker(len(names))
	}
	for _, e := range exports {
		colMap := make([]int, len(e.Names))
		for i, n := range e.Names {
			colMap[i] = nameIdx[n]
		}
		out.Tracker.Merge(e.Tracker, colMap)
		if pairsOK {
			out.Pairs.Merge(e.Pairs, colMap)
		}
	}
	return out, pairsOK
}

// Sigma evaluates a counts-only measure against the export — the same
// (N_p, |S|) evaluation the live engines use, so a coordinator's
// merged answer is bit-identical to a single node holding all data.
func (e *AggregateExport) Sigma(fn rules.CountsFunc) rules.Ratio {
	return e.Tracker.Eval(fn)
}

// SigmaPairs evaluates a pair-counts measure against the export;
// ok = false when the export carries no pair matrix.
func (e *AggregateExport) SigmaPairs(fn rules.PairCountsFunc) (rules.Ratio, bool) {
	if e.Pairs == nil {
		return rules.Ratio{}, false
	}
	pc := trackerPairs{t: e.Pairs, nameIdx: e.NameIndex()}
	return fn.EvalPairCounts(e.Tracker.Counts(), pc, e.Tracker.Subjects()), true
}

// NameIndex returns the name → column map of the export.
func (e *AggregateExport) NameIndex() map[string]int {
	idx := make(map[string]int, len(e.Names))
	for i, n := range e.Names {
		idx[n] = i
	}
	return idx
}

// exportReader is a cursor over an encoding, accumulating the first
// error (the same discipline as the rules/matrix decoders).
type exportReader struct {
	data []byte
	off  int
	err  error
}

func (r *exportReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.err = fmt.Errorf("truncated uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *exportReader) str() string {
	n := int(r.uvarint())
	if r.err != nil {
		return ""
	}
	if n < 0 || n > len(r.data)-r.off {
		r.err = fmt.Errorf("truncated string (%d bytes) at offset %d", n, r.off)
		return ""
	}
	s := string(r.data[r.off : r.off+n])
	r.off += n
	return s
}

func (r *exportReader) bytes() []byte {
	n := int(r.uvarint())
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.data)-r.off {
		r.err = fmt.Errorf("truncated block (%d bytes) at offset %d", n, r.off)
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *exportReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.data) {
		r.err = fmt.Errorf("truncated byte at offset %d", r.off)
		return 0
	}
	b := r.data[r.off]
	r.off++
	return b
}

func (r *exportReader) rest() int { return len(r.data) - r.off }
