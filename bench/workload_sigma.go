package main

import (
	"math/rand"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

const (
	// wideScale sizes the wide corpus: 2000 columns, 400 subjects, about
	// 160 signatures. It is the largest scale at which the refinement
	// probe still answers in about half a second; at the generator's
	// 0.25 (5000 columns) one refinement takes 6 s.
	wideScale = 0.1
	// wideKeys exceeds the server's 256-entry σ cache, so the tail of the
	// key distribution misses even between writes.
	wideKeys      = 512
	wideZipf      = 1.1
	wideWriteRate = 0.02
)

// churner turns held-out subjects into an endless stream of 20-line
// adds and removals, and remembers which groups the server acknowledged
// as present.
type churner struct {
	groups [][]block
	writes int
	mu     sync.Mutex // the open loop shares one churner between connections
	in     map[int]bool
}

func newChurner(heldOut []block) *churner {
	return &churner{groups: groupBlocks(heldOut, 20), in: map[int]bool{}}
}

// next returns the stream's next write.
func (ch *churner) next() (b body, remove bool, group int) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	b, remove, group = churnBody(ch.groups, ch.writes)
	ch.writes++
	return b, remove, group
}

// at returns the w-th write, for a schedule that numbered its writes.
func (ch *churner) at(w int) (b body, remove bool, group int) {
	return churnBody(ch.groups, w)
}

// acked records an acknowledged write.
func (ch *churner) acked(remove bool, group int) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if remove {
		delete(ch.in, group)
	} else {
		ch.in[group] = true
	}
}

// present lists the held-out subjects that should be in the dataset now.
func (ch *churner) present() []block {
	var out []block
	for g := range ch.groups {
		if ch.in[g] {
			out = append(out, ch.groups[g]...)
		}
	}
	return out
}

// wideIn is sigma-wide's traffic: the held-out subjects in the seed's
// order, the σ keys, and the seeded request stream.
type wideIn struct {
	base  []block
	keys  []string
	churn *churner
	rng   *rand.Rand
	zipf  *rand.Zipf
}

func wideInputs(rc *runCtx, blocks []block) *wideIn {
	held, base := holdOut(blocks, 10)
	in := &wideIn{base: base, churn: newChurner(shuffled(held, rc.rng("wide-heldout"))), rng: rc.rng("wide-requests")}
	// The key set is part of the fixed corpus: which column pairs are
	// asked for decides what the server has to build and keep (one seed's
	// pairs cost it 15 MB more than another's), so only the order in
	// which the keys are requested is left to the seed.
	in.keys = sigmaKeys(popularPredicates(in.base, 64), wideKeys, rand.New(rand.NewSource(1)))
	in.zipf = rand.NewZipf(in.rng, wideZipf, 1, wideKeys-1)
	return in
}

// next draws the next request: a churn write one time in fifty, else a
// σ read of a Zipf-ranked key.
func (in *wideIn) next() (write bool, key string, b body, remove bool, group int) {
	if in.rng.Float64() < wideWriteRate {
		b, remove, group = in.churn.next()
		return true, "", b, remove, group
	}
	return false, in.keys[in.zipf.Uint64()], body{}, false, 0
}

// runSigmaWide reads σ from one in-memory rdfserved holding the wide
// corpus in a closed loop, each op a GET /sigma with a
// Zipf-distributed key or, one time in fifty, a 20-line write that bumps
// the epoch and so empties the σ cache. Five refinements follow the
// loop. The corpus, the held-out subjects and the key set are the same
// for every seed; the seed decides the request sequence.
func runSigmaWide(rc *runCtx) error {
	dir, err := rc.env.dir("wide")
	if err != nil {
		return err
	}
	dump, base := filepath.Join(dir, "wide.nt"), filepath.Join(dir, "base.nt")
	args := []string{"-shards", "2", "-in", base}

	var st setupTimer
	var srv *proc
	var in *wideIn
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			srv.kill()
		}
		if err := st.time(func() error { return rc.gen("wide", wideScale, dump) }); err != nil {
			return err
		}
		if i == 0 {
			blocks, err := readBlocks(dump)
			if err != nil {
				return err
			}
			in = wideInputs(rc, blocks)
			if err := writeDump(base, in.base); err != nil {
				return err
			}
		}
		err := st.time(func() error {
			srv, err = rc.env.start("rdfserved", "rdfserved", args...)
			return err
		})
		if err != nil {
			return err
		}
		st.lap()
	}
	st.report(rc)
	rc.rep.Flags["rdfserved"] = "-shards 2 -in <tmp>/base.nt"
	rc.rep.Flags["rdfgen"] = "-dataset wide -seed 1 -scale " + strconv.FormatFloat(wideScale, 'f', -1, 64)

	step := func(_ int, c *conn, t *tally) bool {
		write, key, b, remove, group := in.next()
		if !write {
			t.doSigma(c, srv.url, key)
		} else if t.doWrite(c, srv.url, b) {
			in.churn.acked(remove, group)
		}
		return true
	}
	loop := max(time.Second, time.Duration(rc.seconds)*time.Second-2*time.Second)
	cpu := startCPUMeter()
	t, wall := closedLoop(loop, step)
	rc.layer("harness.client_cpu_share", cpu.share())
	c := newConn()
	defer c.close()
	for i := 0; i < refineProbes; i++ {
		t.doRefine(c, srv.url)
	}
	rc.count(t)

	// Reference: rdfstruct on the base plus the held-out groups the
	// server acknowledged, for the closed forms and a few pair keys.
	expected := filepath.Join(dir, "expected.nt")
	if err := writeDump(expected, in.base, in.churn.present()); err != nil {
		return err
	}
	got, err := rc.readSigmas(srv.url, in.keys[:8])
	if err != nil {
		return err
	}
	if err := rc.checkSigmas("after the loop", got, expected); err != nil {
		return err
	}

	rss, err := srv.peakRSSMB()
	if err != nil {
		return err
	}
	rc.e2e("sigma_p50_ms", median(t.lat[opSigma]), len(t.lat[opSigma]))
	rc.e2e("ingest_p50_ms", median(t.lat[opWrite]), len(t.lat[opWrite]))
	rc.e2e("refine_p50_ms", median(t.lat[opRefine]), len(t.lat[opRefine]))
	rc.e2e("peak_rss_mb", rss, 1)

	rc.layer("serve.sigma_reads_per_s", float64(len(t.lat[opSigma]))/wall.Seconds())
	if v, ok := p99(t.lat[opSigma]); ok {
		rc.layer("serve.sigma_p99_ms", v)
	}
	if v, ok := p99(t.lat[opWrite]); ok {
		rc.layer("serve.write_p99_ms", v)
	}
	if n := t.cache["hit"] + t.cache["miss"]; n > 0 {
		rc.layer("protect.sigma_cache_hit_ratio", float64(t.cache["hit"])/float64(n))
	}
	rc.serverLayers(fetchMetrics(srv.url))
	return nil
}
