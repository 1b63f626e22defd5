package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// clusterRate is the fixed arrival rate. At 70 requests a second a
	// 20 s run has about 1100 σ reads, enough for a p99 with ten samples
	// beyond it, while the refinements (about 0.25 s each) still keep a
	// connection busy only a third of the time.
	clusterRate       = 70
	clusterSigmaShare = 0.80
	clusterWriteShare = 0.18 // the remaining 2% are refinements
)

// topology is a booted 2x2 cluster: four workers behind one coordinator.
type topology struct {
	workers []*proc
	coord   *proc
}

func (cl *topology) procs() []*proc { return append(append([]*proc(nil), cl.workers...), cl.coord) }

func (cl *topology) kill() {
	for _, p := range cl.procs() {
		p.kill()
	}
}

func workerArgs(dataDir string) []string {
	return []string{"-cluster-worker", "-shards", "1", "-data-dir", dataDir, "-fsync", "batch"}
}

// bootCluster starts two groups of two replicas and a coordinator with
// default flags, then loads the base corpus through the coordinator.
func bootCluster(rc *runCtx, preload []body) (*topology, error) {
	cl := &topology{}
	var groups []string
	for g := 0; g < 2; g++ {
		var urls []string
		for r := 0; r < 2; r++ {
			name := fmt.Sprintf("worker-g%dr%d", g, r)
			dataDir, err := rc.env.dir(name)
			if err != nil {
				return nil, err
			}
			p, err := rc.env.start(name, "rdfserved", workerArgs(dataDir)...)
			if err != nil {
				return nil, err
			}
			cl.workers = append(cl.workers, p)
			urls = append(urls, p.url)
		}
		groups = append(groups, "-group", strings.Join(urls, ","))
	}
	var err error
	if cl.coord, err = rc.env.start("rdfcoord", "rdfcoord", groups...); err != nil {
		return nil, err
	}
	t, _ := postAll(cl.coord.url, preload)
	if t.failed > 0 {
		return nil, fmt.Errorf("preload through the coordinator: %d of %d batches failed: %v", t.failed, t.attempted, t.why)
	}
	return cl, nil
}

// clusterIn is cluster-mixed's traffic.
type clusterIn struct {
	base, heldOut []block
	preload       []body // raw bodies of about 1000 lines covering base
	sched         []schedOp
	churn         *churner
}

func clusterInputs(rc *runCtx, blocks []block, d time.Duration) *clusterIn {
	held, base := holdOut(blocks, 10)
	held = shuffled(held, rc.rng("cluster-heldout"))
	in := &clusterIn{heldOut: held, base: base, churn: newChurner(held)}
	for _, g := range groupBlocks(in.base, 1000) {
		in.preload = append(in.preload, rawBody(g))
	}
	in.sched = openSchedule(clusterRate, d, clusterSigmaShare, clusterWriteShare, len(personKeys), rc.rng("cluster-schedule"))
	return in
}

// runClusterMixed sends a seeded schedule at a fixed rate through
// rdfcoord: 80% σ reads over four keys, 18% 20-line writes adding and
// retracting held-out subjects, 2% refinements. It is an open loop: two
// connections take the requests in order, each waits for its request's
// due time, and latency is counted from the due time, so a stall shows
// in every request queued behind it.
func runClusterMixed(rc *runCtx) error {
	dir, err := rc.env.dir("cluster")
	if err != nil {
		return err
	}
	dump := filepath.Join(dir, "persons.nt")

	var st setupTimer
	var cl *topology
	var in *clusterIn
	for i := 0; i < setupRepeats; i++ {
		if cl != nil {
			cl.kill()
		}
		if err := st.time(func() error { return rc.gen("dbpedia", 0.01, dump) }); err != nil {
			return err
		}
		if i == 0 {
			blocks, err := readBlocks(dump)
			if err != nil {
				return err
			}
			in = clusterInputs(rc, blocks, time.Duration(rc.seconds)*time.Second)
		}
		err := st.time(func() error {
			cl, err = bootCluster(rc, in.preload)
			return err
		})
		if err != nil {
			return err
		}
		st.lap()
	}
	st.report(rc)
	rc.rep.Flags["rdfserved x4"] = strings.Join(workerArgs("<tmp>/gXrY"), " ")
	rc.rep.Flags["rdfcoord"] = "-group <g0r0>,<g0r1> -group <g1r0>,<g1r1>"
	rc.rep.Flags["rdfgen"] = "-dataset dbpedia -scale 0.01"

	sched, churn := in.sched, in.churn
	var io0 int64
	for _, w := range cl.workers {
		n, err := w.writeBytes()
		if err != nil {
			return err
		}
		io0 += n
	}

	var next atomic.Int64
	tallies := []*tally{newTally(), newTally()}
	late := make([][]float64, 2)
	cpu := startCPUMeter()
	start := time.Now()
	var wg sync.WaitGroup
	for w := range tallies {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newConn()
			defer c.close()
			t := tallies[w]
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				op := sched[i]
				due := start.Add(op.due)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					// Lateness is the generator's own: how far it
					// overslept a request it was free to send on time.
					// A request that found both connections busy waited
					// for the system, which its latency already counts.
					late[w] = append(late[w], float64(time.Since(due))/float64(time.Millisecond))
				}
				switch op.kind {
				case opSigma:
					r, err := c.get(sigmaURL(cl.coord.url, personKeys[op.arg]))
					if t.record(opSigma, r, err, time.Since(due)) {
						if _, err := sigmaFraction(r.body); err != nil {
							t.fail("sigma: %v", err)
						}
					}
				case opWrite:
					b, remove, group := churn.at(op.arg)
					r, err := c.post(cl.coord.url, b)
					if t.fileWrite(r, err, time.Since(due), b) {
						churn.acked(remove, group)
					}
				case opRefine:
					r, err := c.get(cl.coord.url + refineQuery)
					t.fileRefine(r, err, time.Since(due))
				}
			}
		}(w)
	}
	wg.Wait()
	rc.layer("harness.client_cpu_share", cpu.share())
	t := tallies[0]
	t.merge(tallies[1])
	rc.count(t)
	lateP99 := percentile(sorted(append(late[0], late[1]...)), 0.99)
	rc.layer("harness.late_p99_ms", lateP99)
	if lateP99 > 5 {
		rc.invalid("the generator sent its p99 request %.1f ms late", lateP99)
	}

	expected := filepath.Join(dir, "expected.nt")
	if err := writeDump(expected, in.base, churn.present()); err != nil {
		return err
	}
	got, err := rc.readSigmas(cl.coord.url, personKeys)
	if err != nil {
		return err
	}
	if err := rc.checkSigmas("through the coordinator", got, expected); err != nil {
		return err
	}

	rss, err := sumPeakRSS(cl.procs()...)
	if err != nil {
		return err
	}
	rc.e2e("sigma_p50_ms", median(t.lat[opSigma]), len(t.lat[opSigma]))
	rc.e2e("ingest_p50_ms", median(t.lat[opWrite]), len(t.lat[opWrite]))
	rc.e2e("refine_p50_ms", median(t.lat[opRefine]), len(t.lat[opRefine]))
	rc.e2e("peak_rss_mb", rss, len(cl.procs()))

	if v, ok := p99(t.lat[opSigma]); ok {
		rc.layer("serve.sigma_p99_ms", v)
	}
	if v, ok := p99(t.lat[opWrite]); ok {
		rc.layer("serve.write_p99_ms", v)
	}
	var io1 int64
	for _, w := range cl.workers {
		n, err := w.writeBytes()
		if err != nil {
			return err
		}
		io1 += n
	}
	rc.layer("wal.bytes_per_user_byte", float64(io1-io0)/float64(t.bodyBytes))

	m := fetchMetrics(cl.coord.url)
	if v, ok := m.histQuantile("rdf_cluster_fanout_seconds", 0.5); ok {
		rc.layer("cluster.fanout_p50_ms", v*1000)
	}
	for name, series := range map[string]string{
		"cluster.hedged_reads":   "rdf_cluster_hedged_reads_total",
		"cluster.failovers":      "rdf_cluster_failovers_total",
		"cluster.retries":        "rdf_cluster_retries_total",
		"cluster.write_rejected": "rdf_cluster_write_rejected_total",
	} {
		if v, ok := m.sum(series); ok {
			rc.layer(name, v)
		}
	}
	if rc.rep.Layers["cluster.failovers"] > 0 || rc.rep.Layers["cluster.write_rejected"] > 0 {
		rc.invalid("the cluster was not healthy: %g failovers, %g rejected writes",
			rc.rep.Layers["cluster.failovers"], rc.rep.Layers["cluster.write_rejected"])
	}
	return nil
}
