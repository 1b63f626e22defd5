package incr

import (
	"slices"
	"strings"
	"sync"

	"repro/internal/rules"
	"repro/internal/term"
)

// readCut is the merged read state of one composite epoch — everything
// a cross-shard σ, stats or aggregate-export read needs that is a pure
// function of that epoch, memoized in Sharded.cut the way the merged
// snapshot is in Sharded.snap. Its two parts are built independently,
// each on first use and only by a reader that holds every shard's read
// lock at this epoch (cutLocked is the one way to obtain a cut); once
// built a part is immutable and may be read without any lock.
type readCut struct {
	epoch uint64

	countsOnce sync.Once
	// names is the sorted union of the shards' active property names —
	// the merged column space. Shards share one dictionary, so the union
	// is taken over property IDs; names are only sorted, never hashed.
	names []string
	// col maps a property ID to its merged column.
	col map[term.ID]int
	// tracker holds the summed N_p, |S| and 1-entry totals over names
	// (rules.CountTracker.Merge per shard). Shared: callers must not
	// mutate it.
	tracker *rules.CountTracker
	// toMerged[i][c] is the merged column of shard i's column c and
	// toLocal[i][m] its inverse; -1 marks a column that is retired in
	// (or absent from) the shard and so carries no counts there.
	toMerged, toLocal [][]int

	statsOnce sync.Once
	// stats is the merged Stats without Terms: the dictionary also grows
	// between epochs (terms are interned before their batch applies).
	stats Stats
}

// cutLocked returns the read cut of the current composite epoch,
// reusing the memoized one when no shard moved since it was taken.
// Caller holds all shard read locks — which also means no cut of a
// later epoch can exist yet, so publishing never evicts a newer one.
func (s *Sharded) cutLocked() *readCut {
	var epoch uint64
	for _, d := range s.shards {
		epoch += d.epoch
	}
	for {
		cur := s.cut.Load()
		if cur != nil && cur.epoch == epoch {
			return cur
		}
		// Readers racing here at a fresh epoch all adopt the one cut that
		// wins the swap, so each part is still built once.
		if c := (&readCut{epoch: epoch}); s.cut.CompareAndSwap(cur, c) {
			return c
		}
	}
}

// buildOnce runs a cut part's builder unless the part is already built,
// and counts the read as a build or a reuse.
func (s *Sharded) buildOnce(once *sync.Once, build func()) {
	built := false
	once.Do(func() {
		built = true
		build()
	})
	s.met.Load().observe(built)
}

// countsLocked returns c with its counts part (names, col, tracker,
// column maps) built. Caller holds all shard read locks at c.epoch.
func (s *Sharded) countsLocked(c *readCut) *readCut {
	s.buildOnce(&c.countsOnce, func() {
		type prop struct {
			name string
			id   term.ID
		}
		widest := 0
		for _, d := range s.shards {
			widest = max(widest, len(d.propIDs))
		}
		c.col = make(map[term.ID]int, widest)
		union := make([]prop, 0, widest)
		for _, d := range s.shards {
			counts := d.tracker.Counts()
			for i, id := range d.propIDs {
				if counts[i] == 0 {
					continue
				}
				if _, seen := c.col[id]; !seen {
					c.col[id] = len(union)
					union = append(union, prop{d.props[i], id})
				}
			}
		}
		slices.SortFunc(union, func(a, b prop) int { return strings.Compare(a.name, b.name) })
		c.names = make([]string, len(union))
		for m, p := range union {
			c.names[m] = p.name
			c.col[p.id] = m
		}
		c.tracker = rules.NewCountTracker(len(union))
		c.toMerged = make([][]int, len(s.shards))
		c.toLocal = make([][]int, len(s.shards))
		for si, d := range s.shards {
			counts := d.tracker.Counts()
			toMerged := make([]int, len(d.propIDs))
			toLocal := make([]int, len(union))
			for m := range toLocal {
				toLocal[m] = -1
			}
			for i, id := range d.propIDs {
				toMerged[i] = -1
				if counts[i] > 0 {
					m := c.col[id]
					toMerged[i], toLocal[m] = m, i
				}
			}
			c.tracker.Merge(d.tracker, toMerged)
			c.toMerged[si], c.toLocal[si] = toMerged, toLocal
		}
	})
	return c
}

// statsLocked returns the merged Stats of c's epoch, building them on
// first use: triples, subjects, added and removed sum (subject-
// disjointness makes the subject sum exact), properties count the union
// of active columns, signatures count the distinct merged property
// sets. Only the shards that moved since the last cut recompute their
// signature keys (Dataset.sigKeysLocked). Caller holds all shard read
// locks at c.epoch.
func (s *Sharded) statsLocked(c *readCut) Stats {
	s.buildOnce(&c.statsOnce, func() {
		st := Stats{Epoch: c.epoch}
		keySets := make([]map[string]struct{}, len(s.shards))
		for si, d := range s.shards {
			st.Triples += d.g.Len()
			st.Subjects += d.g.SubjectCount()
			st.Added += d.added
			st.Removed += d.removed
			// A property or signature counts once, on the first shard that
			// holds it.
			earlier := s.shards[:si]
			counts := d.tracker.Counts()
			for i, id := range d.propIDs {
				if counts[i] > 0 && !slices.ContainsFunc(earlier, func(e *Dataset) bool { return e.activeLocked(id) }) {
					st.Properties++
				}
			}
			keySets[si] = d.sigKeysLocked()
			for k := range keySets[si] {
				if !slices.ContainsFunc(keySets[:si], func(e map[string]struct{}) bool { _, dup := e[k]; return dup }) {
					st.Signatures++
				}
			}
		}
		c.stats = st
	})
	st := c.stats
	st.Terms = s.dict.Len()
	return st
}
