package incr

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/datagen"
	"repro/internal/matrix"
	"repro/internal/rdf"
	"repro/internal/rules"
)

// TestWideConcurrentSnapshotWhileIngest hammers the wide scenario —
// the shape that routes the engine through the compressed-container
// and sparse pair-tracker paths — with snapshot readers, σ evaluators
// and storage-accounting scrapes racing a batched ingest. Run under
// -race this pins the copy-on-write discipline of the adaptive tier;
// the final state must still be bit-identical to the batch build.
func TestWideConcurrentSnapshotWhileIngest(t *testing.T) {
	defer bitset.SetPolicy(bitset.SetPolicy(bitset.PolicyAdaptive))
	// 3000 columns: far enough past the adaptive thresholds that even
	// the shard-local column spaces (each shard sees a third of the
	// subjects) cross into compressed containers, so the racing readers
	// observe sparse state while batches land.
	g := datagen.WideSchemaGraph(datagen.WideAtScale(0.15, 21))
	triples := g.Triples()

	engines := map[string]Engine{
		"single":  NewDataset(Options{}),
		"sharded": NewSharded(3, Options{}),
	}
	for name, d := range engines {
		t.Run(name, func(t *testing.T) {
			done := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						snap := d.Snapshot()
						if snap.View != nil {
							_ = rules.Coverage(snap.View)
							_ = snap.View.StorageStats()
						}
						_ = d.SigmaCov()
						_ = d.ViewStorage()
					}
				}()
			}
			const batch = 256
			for i := 0; i < len(triples); i += batch {
				end := i + batch
				if end > len(triples) {
					end = len(triples)
				}
				d.Apply(triples[i:end], nil)
			}
			close(done)
			wg.Wait()

			want := matrix.FromGraph(g, matrix.Options{}).AppendBinary(nil)
			got := d.Snapshot().View.AppendBinary(nil)
			if name == "sharded" {
				// Shard views merge into the global one; the merged view
				// must match the batch build bit-for-bit.
				var views []*matrix.View
				for _, sh := range d.(*Sharded).Shards() {
					views = append(views, sh.Snapshot().View)
				}
				merged, err := matrix.MergeViews(views...)
				if err != nil {
					t.Fatal(err)
				}
				got = merged.AppendBinary(nil)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("post-ingest view differs from batch FromGraph build")
			}

			vs := d.ViewStorage()
			if vs.SparseSigs == 0 {
				t.Fatalf("wide ingest produced no compressed signatures: %+v", vs)
			}
			if vs.ViewBytes <= 0 || vs.TrackerBytes <= 0 {
				t.Fatalf("implausible storage accounting: %+v", vs)
			}
		})
	}
}

// TestWideConcurrentReadCut races writers against readers of the merged
// read cut on the 2 000-column corpus. Every reader records (epoch, σ)
// pairs through SigmaStats — one cut, so the stats epoch is the epoch
// the ratio was computed at — and any two observations of one epoch
// must agree, whichever reader made them and whether it built the cut
// or reused it. One reader also scribbles over every aggregate export
// it is handed, which must never show in a later read.
func TestWideConcurrentReadCut(t *testing.T) {
	g := datagen.WideSchemaGraph(datagen.WideAtScale(0.1, 1))
	triples := g.Triples()
	s := NewSharded(2, Options{})
	base := len(triples) / 2
	s.Apply(triples[:base], nil)

	fns := []rules.Func{
		rules.CovFunc(), rules.SimFunc(),
		rules.DepFunc(datagen.WideProp(0), datagen.WideProp(1)),
		rules.SymDepFunc(datagen.WideProp(2), datagen.WideProp(0)),
	}
	type obs struct {
		epoch uint64
		fn    int
		sigma string
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	seen := make([][]obs, 4)
	for r := range seen {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				fn := (i + r) % len(fns)
				ratio, st, live := s.SigmaStats(fns[fn])
				if !live {
					t.Errorf("%s: no live evaluation", fns[fn].Name())
					return
				}
				seen[r] = append(seen[r], obs{st.Epoch, fn, ratio.String()})
				if r == 0 {
					ex := s.ExportAggregates()
					ex.Names[0] = "scribbled"
					ex.Tracker.Gain(0)
					ex.Tracker.AddSubjects(7)
				}
			}
		}()
	}
	// Two writers on disjoint halves of the remaining stream, then a
	// retraction pass, so epochs advance on both shards throughout.
	rest := triples[base:]
	var writers sync.WaitGroup
	for w, part := range [][]rdf.Triple{rest[:len(rest)/2], rest[len(rest)/2:]} {
		writers.Add(1)
		go func() {
			defer writers.Done()
			const batch = 64
			for i := 0; i < len(part); i += batch {
				s.Apply(part[i:min(i+batch, len(part))], nil)
			}
			if w == 0 {
				s.Apply(nil, part)
			}
		}()
	}
	writers.Wait()
	close(done)
	wg.Wait()

	type key struct {
		epoch uint64
		fn    int
	}
	at := map[key]string{}
	for _, list := range seen {
		for _, o := range list {
			k := key{o.epoch, o.fn}
			if prev, ok := at[k]; ok && prev != o.sigma {
				t.Fatalf("epoch %d, %s: observed both %q and %q", o.epoch, fns[o.fn].Name(), prev, o.sigma)
			}
			at[k] = o.sigma
		}
	}
	// The final state is the batch answer, scribbles notwithstanding.
	final := rdf.NewGraph()
	for _, tr := range append(triples[:base:base], rest[len(rest)/2:]...) {
		final.Add(tr)
	}
	want := matrix.FromGraph(final, matrix.Options{})
	if got := s.SigmaCov(); got.String() != rules.Coverage(want).String() {
		t.Fatalf("σCov after the race = %v, want %v", got, rules.Coverage(want))
	}
	if ex := s.ExportAggregates(); ex.Names[0] == "scribbled" || ex.Tracker.Subjects() != int64(want.NumSubjects()) {
		t.Fatalf("a mutated export leaked into a later one: names[0] = %q, |S| = %d (want %d)",
			ex.Names[0], ex.Tracker.Subjects(), want.NumSubjects())
	}
}
