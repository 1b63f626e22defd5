package incr

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/rules"
)

// cutOf returns the engine's read cut at its current epoch.
func cutOf(s *Sharded) *readCut {
	s.rlockAll()
	defer s.runlockAll()
	return s.cutLocked()
}

// cutReads renders every read that goes through the cut: σCov and σSim,
// the pair measures (fixed demands, including a pair with the column
// the stream retires, and a compiled rule with none, which materializes
// the merged matrix), SigmaStats, Stats and the aggregate export bytes.
func cutReads(t *testing.T, s *Sharded) string {
	t.Helper()
	const p0, p1, rare = "http://cut/p0", "http://cut/p1", "http://cut/rare"
	var b strings.Builder
	fns := []rules.Func{
		rules.CovFunc(), rules.SimFunc(),
		rules.DepFunc(p0, p1), rules.SymDepFunc(p0, p1), rules.DepDisjFunc(p0, p1),
		rules.DepFunc(p0, rare), rules.SymDepFunc(rare, p1),
		rules.FuncForRule(rules.MustParse("subj(c1) = subj(c2) && prop(c1) = <" + p0 + "> && prop(c2) = <" + p1 + "> -> val(c1) = val(c2)")),
		rules.FuncForRule(rules.MustParse("val(c1) = 1 && val(c2) = 0 -> val(c2) = 0")),
	}
	for _, fn := range fns {
		var direct rules.Ratio
		switch f := fn.(type) {
		case rules.CountsFunc:
			direct = s.Sigma(f)
		case rules.PairCountsFunc:
			var live bool
			if direct, live = s.SigmaPairs(f); !live {
				t.Fatalf("%s: pair tracking unexpectedly off", fn.Name())
			}
		default:
			t.Fatalf("%s has no live evaluation", fn.Name())
		}
		ratio, st, live := s.SigmaStats(fn)
		if !live || ratio.String() != direct.String() || st != s.Stats() {
			t.Fatalf("%s: SigmaStats = (%v, %+v, %v), direct reads (%v, %+v)", fn.Name(), ratio, st, live, direct, s.Stats())
		}
		fmt.Fprintf(&b, "%s = %s\n", fn.Name(), direct)
	}
	merged, per := s.StatsWithShards()
	fmt.Fprintf(&b, "stats %+v\nshards %+v\nexport %x\n", merged, per, s.ExportAggregates().AppendBinary(nil))
	return b.String()
}

// TestReadCutDifferential drives seeded batch sequences — adds,
// removes, no-op batches, a column retired to N_p = 0 and revived,
// batches touching one shard only — and after every batch requires each
// read through the memoized cut to be byte-equal to the same read on a
// freshly built engine fed the same history (whose cut and per-shard
// signature keys are built from nothing). A no-op batch must leave the
// cut pointer-identical; an effective one must replace it.
func TestReadCutDifferential(t *testing.T) {
	obj := rdf.NewURI("http://cut/o")
	triple := func(s int, p string) rdf.Triple {
		return rdf.Triple{Subject: fmt.Sprintf("http://cut/s%d", s), Predicate: p, Object: obj}
	}
	for _, shards := range []int{2, 4, 8} {
		for _, seed := range []int64{5, 17} {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				live := NewSharded(shards, Options{})
				type batch struct{ add, remove []rdf.Triple }
				var history []batch
				alive := map[rdf.Triple]bool{}
				var noops, retired, revived int
				for step := 0; step < 48; step++ {
					// The live triples in a seeded order (map order is not).
					var pool []rdf.Triple
					for tr := range alive {
						pool = append(pool, tr)
					}
					sort.Slice(pool, func(i, j int) bool {
						return pool[i].Subject+pool[i].Predicate < pool[j].Subject+pool[j].Predicate
					})
					rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
					var b batch
					switch op := rng.Intn(6); {
					case step == 0 || op == 0: // add
						for i := 1 + rng.Intn(12); i > 0; i-- {
							b.add = append(b.add, triple(rng.Intn(24), fmt.Sprintf("http://cut/p%d", rng.Intn(6))))
						}
					case op == 1: // remove
						b.remove = pool[:min(len(pool), 1+rng.Intn(8))]
					case op == 2: // no-op: re-add live triples, remove absent ones
						b.add = pool[:min(len(pool), 2)]
						b.remove = append(b.remove, triple(99, "http://cut/never"))
						noops++
					case op == 3: // retire the rare column, or revive it
						for _, tr := range pool {
							if tr.Predicate == "http://cut/rare" {
								b.remove = append(b.remove, tr)
							}
						}
						if len(b.remove) == 0 {
							b.add = append(b.add, triple(rng.Intn(24), "http://cut/rare"))
							revived++
						} else {
							retired++
						}
					default: // one subject, so one shard
						s := rng.Intn(24)
						for i := 0; i < 3; i++ {
							tr := triple(s, fmt.Sprintf("http://cut/p%d", rng.Intn(6)))
							if alive[tr] {
								b.remove = append(b.remove, tr)
							} else {
								b.add = append(b.add, tr)
							}
						}
					}
					before := cutOf(live)
					added, removed := live.Apply(b.add, b.remove)
					history = append(history, b)
					for _, tr := range b.add {
						alive[tr] = true
					}
					for _, tr := range b.remove {
						delete(alive, tr)
					}
					if after := cutOf(live); (after != before) != (added+removed > 0) {
						t.Fatalf("step %d: %d added, %d removed, cut replaced = %v", step, added, removed, after != before)
					}
					fresh := NewSharded(shards, Options{})
					for _, h := range history {
						fresh.Apply(h.add, h.remove)
					}
					if got, want := cutReads(t, live), cutReads(t, fresh); got != want {
						t.Fatalf("step %d: reads through the memoized cut differ from a fresh engine\n got:\n%s\nwant:\n%s", step, got, want)
					}
				}
				if noops == 0 || retired == 0 || revived < 2 {
					t.Fatalf("sequence too tame: %d no-ops, column retired %d and (re)created %d times", noops, retired, revived)
				}
			})
		}
	}
}
