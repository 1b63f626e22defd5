package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"time"
)

// engineStats is the dataset summary GET /stats reports.
type engineStats struct {
	Triples    int `json:"triples"`
	Subjects   int `json:"subjects"`
	Properties int `json:"properties"`
	Signatures int `json:"signatures"`
}

func (rc *runCtx) readStats(base string) (engineStats, error) {
	var body struct {
		Stats engineStats `json:"stats"`
	}
	c := newConn()
	defer c.close()
	rc.rep.Attempted++
	r, err := c.get(base + "/stats")
	if err != nil {
		return body.Stats, err
	}
	if r.status != 200 {
		return body.Stats, fmt.Errorf("GET /stats: status %d", r.status)
	}
	return body.Stats, json.Unmarshal(r.body, &body)
}

// ingestIn is ingest-durable's traffic.
type ingestIn struct {
	blocks    []block // every subject, in the seed's ingest order
	retracted []block // every fifth subject of the dump, in the seed's order: removed, then added back
	bulk      []body  // raw bodies of about 1000 lines covering blocks
	retract   []body  // JSON remove bodies of about 1000 lines covering retracted
	live      []body  // JSON add bodies of about 20 lines covering retracted

	retractGroups, liveGroups [][]block // the subjects behind retract[i] and live[i]
}

func ingestInputs(rc *runCtx, dump string) (*ingestIn, error) {
	blocks, err := readBlocks(dump)
	if err != nil {
		return nil, err
	}
	retracted, _ := holdOut(blocks, 5)
	in := &ingestIn{
		blocks:    shuffled(blocks, rc.rng("ingest-order")),
		retracted: shuffled(retracted, rc.rng("ingest-retract")),
	}
	for _, g := range groupBlocks(in.blocks, 1000) {
		in.bulk = append(in.bulk, rawBody(g))
	}
	in.retractGroups = groupBlocks(in.retracted, 1000)
	for _, g := range in.retractGroups {
		in.retract = append(in.retract, jsonBody("remove", g))
	}
	in.liveGroups = groupBlocks(in.retracted, 20)
	for _, g := range in.liveGroups {
		in.live = append(in.live, jsonBody("add", g))
	}
	return in, nil
}

// postAll posts the bodies once each, in order, and returns the tally
// and the wall time of the whole phase.
func postAll(base string, bodies []body) (*tally, time.Duration) {
	return closedLoop(time.Hour, func(i int, c *conn, t *tally) bool {
		if i >= len(bodies) {
			return false
		}
		t.doWrite(c, base, bodies[i])
		return true
	})
}

// runIngestDurable drives the write path of one WAL-backed rdfserved:
//
//	bulk     every subject of the corpus, as raw N-Triples bodies of
//	         about 1000 lines
//	retract  every fifth subject of the dump, as JSON remove bodies
//	live     for a quarter of --seconds: 20-line JSON bodies adding the
//	         retracted subjects back, each followed by a σ read on the
//	         same connection (a client watching σ while it writes)
//	refine   five refinements of the loaded dataset
//	crash    read σ and /stats, SIGKILL, restart on the same directory,
//	         wait for /stats, read again and compare; refine once more
//	         and compare with the answer before the crash
//
// The corpus grows with --seconds so that bulk stays about a quarter of
// the run.
func runIngestDurable(rc *runCtx) error {
	dir, err := rc.env.dir("ingest")
	if err != nil {
		return err
	}
	dump := filepath.Join(dir, "persons.nt")
	scale := min(1, 0.0125*float64(rc.seconds))
	// The default one-minute checkpoint would fire once per run or not
	// at all; a sixth of the run gives every run several cycles.
	checkpoint := max(time.Second, (time.Duration(rc.seconds) * time.Second / 6).Truncate(100*time.Millisecond))
	args := func(dataDir string) []string {
		return []string{"-shards", "2", "-data-dir", dataDir, "-fsync", "batch", "-checkpoint-interval", checkpoint.String()}
	}

	var st setupTimer
	var srv *proc
	var dataDir string
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			srv.kill()
		}
		if dataDir, err = rc.env.dir("wal"); err != nil {
			return err
		}
		err := st.time(func() error {
			if err := rc.gen("dbpedia", scale, dump); err != nil {
				return err
			}
			srv, err = rc.env.start("rdfserved", "rdfserved", args(dataDir)...)
			return err
		})
		if err != nil {
			return err
		}
		st.lap()
	}
	st.report(rc)
	rc.rep.Flags["rdfserved"] = strings.Join(args("<tmp>"), " ")
	rc.rep.Flags["rdfgen"] = "-dataset dbpedia -scale " + strconv.FormatFloat(scale, 'f', -1, 64)

	in, err := ingestInputs(rc, dump)
	if err != nil {
		return err
	}
	io0, err := srv.writeBytes()
	if err != nil {
		return err
	}
	cpu := startCPUMeter()

	bulkT, bulkWall := postAll(srv.url, in.bulk)
	rc.count(bulkT)
	retractT, retractWall := postAll(srv.url, in.retract)
	rc.count(retractT)

	readded := make([]bool, len(in.live))
	liveT, _ := closedLoop(time.Duration(rc.seconds)*time.Second/4, func(i int, c *conn, t *tally) bool {
		if i >= len(in.live) {
			return false
		}
		readded[i] = t.doWrite(c, srv.url, in.live[i])
		t.doSigma(c, srv.url, personKeys[i%len(personKeys)])
		return true
	})
	rc.count(liveT)
	rc.layer("harness.client_cpu_share", cpu.share())

	refineT := newTally()
	c := newConn()
	defer c.close()
	var before refineAnswer
	for i := 0; i < refineProbes; i++ {
		before, _ = refineT.doRefine(c, srv.url)
	}

	// Crash: what the server says now must be what it says after it was
	// killed and has replayed its directory.
	sigBefore, err := rc.readSigmas(srv.url, personKeys)
	if err != nil {
		return err
	}
	statsBefore, err := rc.readStats(srv.url)
	if err != nil {
		return err
	}
	io1, err := srv.writeBytes()
	if err != nil {
		return err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return err
	}
	rc.serverLayers(fetchMetrics(srv.url))
	srv.kill()
	killed := time.Now()
	srv, err = rc.env.start("rdfserved", "rdfserved", args(dataDir)...)
	if err != nil {
		return fmt.Errorf("restart after SIGKILL: %w", err)
	}
	recovery := time.Since(killed)
	sigAfter, err := rc.readSigmas(srv.url, personKeys)
	if err != nil {
		return err
	}
	statsAfter, err := rc.readStats(srv.url)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(sigBefore, sigAfter) || statsBefore != statsAfter {
		rc.wrong("state changed across SIGKILL and recovery: σ %v, stats %+v before; σ %v, stats %+v after",
			sigBefore, statsBefore, sigAfter, statsAfter)
	}
	if after, ok := refineT.doRefine(c, srv.url); ok && !reflect.DeepEqual(before, after) {
		rc.wrong("refinement changed across recovery: %+v before, %+v after", before, after)
	}
	rc.count(refineT)
	rss2, err := srv.peakRSSMB()
	if err != nil {
		return err
	}

	// Reference: rdfstruct on a dump of what the server should hold.
	var kept []block
	gone := map[string]bool{}
	for _, b := range in.retracted {
		gone[b.subject] = true
	}
	for _, b := range in.blocks {
		if !gone[b.subject] {
			kept = append(kept, b)
		}
	}
	for i, g := range in.liveGroups {
		if readded[i] {
			kept = append(kept, g...)
		}
	}
	expected := filepath.Join(dir, "expected.nt")
	if err := writeDump(expected, kept); err != nil {
		return err
	}
	if err := rc.checkSigmas("after recovery", sigAfter, expected); err != nil {
		return err
	}
	if want := countLines(kept); statsAfter.Triples != want {
		rc.wrong("server holds %d triples, the acknowledged writes leave %d", statsAfter.Triples, want)
	}

	rc.e2e("ingest_p50_ms", median(bulkT.lat[opWrite]), len(bulkT.lat[opWrite]))
	rc.e2e("sigma_p50_ms", median(liveT.lat[opSigma]), len(liveT.lat[opSigma]))
	rc.e2e("refine_p50_ms", median(refineT.lat[opRefine]), len(refineT.lat[opRefine]))
	rc.e2e("peak_rss_mb", max(rss, rss2), 2)

	rc.layer("serve.ingest_triples_per_s", float64(bulkT.triples)/bulkWall.Seconds())
	rc.layer("serve.retract_triples_per_s", float64(retractT.triples)/retractWall.Seconds())
	rc.layer("serve.write_small_p50_ms", median(liveT.lat[opWrite]))
	if v, ok := p99(bulkT.lat[opWrite]); ok {
		rc.layer("serve.write_p99_ms", v)
	}
	if v, ok := p99(liveT.lat[opSigma]); ok {
		rc.layer("serve.sigma_p99_ms", v)
	}
	rc.layer("serve.recovery_s", recovery.Seconds())
	sent := bulkT.bodyBytes + retractT.bodyBytes + liveT.bodyBytes
	rc.layer("wal.bytes_per_user_byte", float64(io1-io0)/float64(sent))
	rc.note("ingest ceiling: %.0f triples/s at the fsync probe's median (1 connection x 1000 triples per fsync), memcpy %.0f MB/s; measured %.0f triples/s",
		1000/(rc.rep.Layers["harness.fsync_p50_ms"]/1000), rc.rep.Layers["harness.memcpy_mb_per_s"], rc.rep.Layers["serve.ingest_triples_per_s"])
	return nil
}
