package main

import (
	"bufio"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"time"
)

// setupRepeats is how often a run sets the system up; setup_s is the
// median, because one corpus generation plus process boot is too short
// and too disk-dependent to repeat well as a single sample.
const setupRepeats = 3

// setupTimer adds up the timed steps of one set-up (corpus generation,
// process boot, preload) and keeps one total per repetition. Work the
// benchmark does for itself between those steps, like cutting the
// corpus into request bodies, is left out.
type setupTimer struct {
	laps []float64
	cur  time.Duration
}

func (s *setupTimer) time(f func() error) error {
	start := time.Now()
	err := f()
	s.cur += time.Since(start)
	return err
}

func (s *setupTimer) lap() {
	s.laps = append(s.laps, s.cur.Seconds())
	s.cur = 0
}

func (s *setupTimer) report(rc *runCtx) { rc.e2e("setup_s", median(s.laps), len(s.laps)) }

// gen runs rdfgen. Only the wide generator takes a seed.
func (rc *runCtx) gen(dataset string, scale float64, out string) error {
	_, err := rc.env.runCLI("rdfgen", "-dataset", dataset, "-scale", strconv.FormatFloat(scale, 'f', -1, 64), "-seed", "1", "-out", out)
	return err
}

// writeDump writes blocks as an N-Triples file.
func writeDump(path string, groups ...[]block) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, g := range groups {
		for _, b := range g {
			for _, l := range b.lines {
				w.WriteString(l)
				w.WriteByte('\n')
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// structLineRE matches rdfstruct's result line, "σCov = 170788/316280 = 0.5400".
var structLineRE = regexp.MustCompile(`(?m)^σ.* = (\d+/\d+) = [0-9.]+$`)

// structFraction is the reference σ: the exact rational rdfstruct prints
// for fn on a dump.
func (rc *runCtx) structFraction(dump, fn string) (string, error) {
	run, err := rc.env.runCLI("rdfstruct", "-in", dump, "-fn", fn)
	if err != nil {
		return "", err
	}
	m := structLineRE.FindStringSubmatch(run.stdout)
	if m == nil {
		return "", fmt.Errorf("rdfstruct -fn %s printed no ratio:\n%s", fn, run.stdout)
	}
	return m[1], nil
}

// personKeys are the σ keys read on the Persons corpus.
var personKeys = []string{"cov", "sim", "dep[deathPlace,deathDate]", "symdep[givenName,surName]"}

// readSigmas reads the exact rational of each key from a server. Every
// read counts as an attempted operation.
func (rc *runCtx) readSigmas(base string, keys []string) (map[string]string, error) {
	c := newConn()
	defer c.close()
	out := map[string]string{}
	for _, k := range keys {
		rc.rep.Attempted++
		r, err := c.get(sigmaURL(base, k))
		if err != nil {
			return nil, err
		}
		if r.status != 200 {
			return nil, fmt.Errorf("GET /sigma?fn=%s: status %d: %s", k, r.status, firstLine(r.body))
		}
		if out[k], err = sigmaFraction(r.body); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkSigmas is the correctness oracle: the rationals a server reports
// must equal, digit for digit, what rdfstruct computes from a dump of
// the state the server should be in.
func (rc *runCtx) checkSigmas(where string, got map[string]string, dump string) error {
	for k, g := range got {
		want, err := rc.structFraction(dump, k)
		if err != nil {
			return err
		}
		if g != want {
			rc.wrong("%s: σ %s = %s, rdfstruct on the dump says %s", where, k, g, want)
		}
	}
	return nil
}

// closedLoop calls step over one connection until the duration has
// passed or step returns false, and returns the tally and the loop's
// wall time. One connection keeps the demand at about one core (client
// and server take turns), which is what makes the timings repeat on a
// box whose second core comes and goes; see README.md, "Sizing for a
// noisy 2-core box".
func closedLoop(d time.Duration, step func(iter int, c *conn, t *tally) bool) (*tally, time.Duration) {
	c := newConn()
	defer c.close()
	t := newTally()
	start := time.Now()
	for i := 0; time.Since(start) < d && step(i, c, t); i++ {
	}
	return t, time.Since(start)
}

// sumPeakRSS adds the resident-set high-water marks of the processes.
func sumPeakRSS(procs ...*proc) (float64, error) {
	var total float64
	for _, p := range procs {
		mb, err := p.peakRSSMB()
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// p99 reports the 99th percentile only when at least ten samples lie
// beyond it.
func p99(ms []float64) (float64, bool) {
	if p, ok := highestTail(len(ms)); !ok || p < 0.99 {
		return 0, false
	}
	return percentile(sorted(ms), 0.99), true
}

// serverLayers fills the layer counters one rdfserved exposes, from a
// /metrics scrape taken at the end of the measured part: WAL series are
// absent on a server without a data directory and then stay unreported.
func (rc *runCtx) serverLayers(m scrape) {
	if n, ok := m.sum("rdf_wal_fsync_seconds_count"); ok {
		rc.layer("wal.fsyncs", n)
	}
	if n, ok := m.sum("rdf_wal_flush_records_count"); ok && n > 0 {
		s, _ := m.sum("rdf_wal_flush_records_sum")
		rc.layer("wal.flush_records_mean", s/n)
	}
	if n, ok := m.sum("rdf_wal_checkpoints_total"); ok {
		rc.layer("wal.checkpoints", n)
	}
	if n, ok := m.sum("rdf_admission_shed_total"); ok {
		rc.layer("protect.shed", n)
		if n > 0 {
			rc.invalid("the server shed %g requests", n)
		}
	}
	if n, ok := m.sum("rdf_admission_wait_seconds_count", `class="read"`); ok && n > 0 {
		s, _ := m.sum("rdf_admission_wait_seconds_sum", `class="read"`)
		rc.layer("protect.admission_wait_s", s/n)
	}
}

// refineProbes is how many refinements the workloads that are not about
// refinement run after their loop.
const refineProbes = 5
