package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/incr"
	"repro/internal/metrics"
)

// TestMetricsEndToEnd drives a mixed workload through an instrumented
// sharded server and asserts GET /metrics contains every registered
// series family afterwards — the wiring pin for the whole
// observability layer (HTTP, ingest, refine, scan counters).
func TestMetricsEndToEnd(t *testing.T) {
	reg := metrics.NewRegistry()
	d := incr.NewSharded(2, incr.Options{})
	d.RegisterMetrics(reg)

	var logMu sync.Mutex
	var logs []string
	opts := Options{
		Metrics: reg,
		// Every request is "slow" at 1ns, so the trace-ID log path runs.
		SlowRequest: time.Nanosecond,
		Logf: func(format string, args ...interface{}) {
			logMu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
		AutoRefine: mustRefineQuery(t, testAutoQuery),
	}
	ts := httptest.NewServer(New(d, opts))
	defer ts.Close()

	// Mixed workload: JSON ingest, raw-NT ingest, σ reads (counts and
	// pair kernels), a refinement, stats, and one client error.
	post := func(body, ct string) *http.Response {
		resp, err := http.Post(ts.URL+"/triples", ct, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp
	}
	post(`{"add":["<http://x/a> <http://x/p> \"1\" .","<http://x/a> <http://x/q> \"2\" .","<http://x/b> <http://x/p> \"3\" ."]}`, "application/json")
	post("<http://x/c> <http://x/q> \"4\" .\n<http://x/d> <http://x/p> \"5\" .\n", "text/plain")
	get := func(path string, want int) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != want {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
		if resp.Header.Get("X-Trace-Id") == "" {
			t.Fatalf("GET %s: missing X-Trace-Id header", path)
		}
	}
	get("/sigma?fn=cov", 200)
	get("/sigma?fn=dep[http://x/p,http://x/q]", 200)
	get("/refine?fn=cov&mode=lowestk&theta=0.5&engine=heuristic&workers=1", 200)
	get("/stats", 200)
	get("/sigma?fn=nosuch", 400)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)

	// Every family registered anywhere in the stack must be present.
	for _, series := range []string{
		"rdf_http_requests_total",
		"rdf_http_request_seconds_bucket",
		"rdf_http_request_seconds_count",
		"rdf_http_in_flight",
		"rdf_http_slow_requests_total",
		"rdf_refine_staleness_epochs",
		"rdf_refine_restarts_total",
		"rdf_sigma_signature_scans_total",
		"rdf_ingest_triples_total",
		"rdf_ingest_batches_total",
		"rdf_ingest_batch_triples_bucket",
		"rdf_engine_epoch",
		"rdf_engine_signatures",
		"rdf_engine_subjects",
		"rdf_engine_terms",
		"rdf_engine_read_cut_total",
	} {
		if !strings.Contains(out, series) {
			t.Errorf("/metrics missing series %s", series)
		}
	}
	// Specific samples: both ingest shards are labeled, the σ reads
	// landed on the sigma endpoint, and the 400 is coded.
	for _, sample := range []string{
		`rdf_ingest_triples_total{shard="0",op="add"}`,
		`rdf_ingest_triples_total{shard="1",op="add"}`,
		`rdf_http_requests_total{endpoint="sigma",code="200"} 2`,
		`rdf_http_requests_total{endpoint="sigma",code="400"} 1`,
		`rdf_http_requests_total{endpoint="triples",code="200"} 2`,
	} {
		if !strings.Contains(out, sample) {
			t.Errorf("/metrics missing sample %q\n%s", sample, out)
		}
	}

	// The writes' stats and the first σ read built their parts of the
	// read cut; the second σ read and /stats reused them.
	for _, outcome := range []string{"build", "reuse"} {
		sample := `rdf_engine_read_cut_total{outcome="` + outcome + `"} `
		if !strings.Contains(out, sample) || strings.Contains(out, sample+"0\n") {
			t.Errorf("/metrics: want a non-zero %s\n%s", sample, out)
		}
	}

	// The slow-request log fired and carries a trace ID.
	logMu.Lock()
	defer logMu.Unlock()
	found := false
	for _, l := range logs {
		if strings.Contains(l, "slow request trace=") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no slow-request log line; logs: %v", logs)
	}
}

// TestStatsViewStorageAndGauges pins the storage-breakdown surface:
// /stats carries the viewStorage block and /metrics the matching
// rdf_view_* gauges, on both the single and the sharded engine.
func TestStatsViewStorageAndGauges(t *testing.T) {
	engines := map[string]incr.Engine{
		"single":  incr.NewDataset(incr.Options{}),
		"sharded": incr.NewSharded(3, incr.Options{}),
	}
	for name, d := range engines {
		t.Run(name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			d.RegisterMetrics(reg)
			ts := httptest.NewServer(New(d, Options{Metrics: reg, Logf: t.Logf}))
			defer ts.Close()

			var add []string
			for i := 0; i < 30; i++ {
				add = append(add, fmt.Sprintf("<http://x/s%d> <http://x/p%d> <http://x/o> .", i, i%5))
			}
			body := `{"add":["` + strings.Join(add, `","`) + `"]}`
			if code := postJSON(t, ts.URL+"/triples", body, &struct{}{}); code != 200 {
				t.Fatalf("ingest status %d", code)
			}

			var stats struct {
				Stats       incr.Stats       `json:"stats"`
				Shards      []incr.Stats     `json:"shards"`
				ViewStorage incr.ViewStorage `json:"viewStorage"`
			}
			if code := getJSON(t, ts.URL+"/stats", &stats); code != 200 {
				t.Fatalf("stats status %d", code)
			}
			vs := stats.ViewStorage
			if vs.SigBytes <= 0 || vs.ViewBytes < vs.SigBytes {
				t.Fatalf("implausible storage breakdown %+v", vs)
			}
			// ViewStorage counts per shard; the sharded breakdown is the
			// per-shard sum, the single engine's is its one snapshot.
			total := stats.Stats.Signatures
			if len(stats.Shards) > 0 {
				total = 0
				for _, sh := range stats.Shards {
					total += sh.Signatures
				}
			}
			if vs.DenseSigs+vs.SparseSigs != total {
				t.Fatalf("dense %d + sparse %d != %d signatures (%+v)",
					vs.DenseSigs, vs.SparseSigs, total, vs)
			}

			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			out := string(raw)
			for _, series := range []string{
				"rdf_view_bytes",
				"rdf_view_sparse_signatures",
				"rdf_view_dense_signatures",
				"rdf_pair_tracker_bytes",
			} {
				if !strings.Contains(out, series) {
					t.Errorf("/metrics missing series %s", series)
				}
			}
		})
	}
}

// TestStatsShardBalanceAndWAL pins the /stats satellites: the
// per-shard imbalance summary and the surfaced WAL recovery info.
func TestStatsShardBalanceAndWAL(t *testing.T) {
	d := incr.NewSharded(4, incr.Options{})
	walInfo := &WALInfo{Mode: "batch", Synchronous: true,
		Recovery: WALRecovery{Terms: 7, Records: 3, DurationMs: 12}}
	ts := httptest.NewServer(New(d, Options{Logf: t.Logf, WAL: walInfo}))
	defer ts.Close()

	var add []string
	for i := 0; i < 40; i++ {
		add = append(add, fmt.Sprintf("<http://x/s%d> <http://x/p> <http://x/o> .", i))
	}
	body := `{"add":["` + strings.Join(add, `","`) + `"]}`
	if code := postJSON(t, ts.URL+"/triples", body, &struct{}{}); code != 200 {
		t.Fatalf("ingest status %d", code)
	}

	var stats struct {
		Shards       []incr.Stats              `json:"shards"`
		ShardBalance map[string]balanceSummary `json:"shardBalance"`
		WAL          *WALInfo                  `json:"wal"`
	}
	if code := getJSON(t, ts.URL+"/stats", &stats); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	if len(stats.Shards) != 4 {
		t.Fatalf("want 4 shard entries, got %d", len(stats.Shards))
	}
	bal, ok := stats.ShardBalance["subjects"]
	if !ok {
		t.Fatal("shardBalance missing subjects summary")
	}
	if bal.Mean != 10 {
		t.Fatalf("subjects mean %v, want 10 (40 subjects over 4 shards)", bal.Mean)
	}
	if bal.Min > bal.Max || float64(bal.Max) < bal.Mean {
		t.Fatalf("inconsistent balance summary %+v", bal)
	}
	if bal.Imbalance < 1 {
		t.Fatalf("imbalance %v < 1", bal.Imbalance)
	}
	sum := 0
	for _, st := range stats.Shards {
		sum += st.Subjects
	}
	if sum != 40 {
		t.Fatalf("shard subjects sum %d, want 40", sum)
	}
	if stats.WAL == nil || stats.WAL.Mode != "batch" || stats.WAL.Recovery.Terms != 7 {
		t.Fatalf("wal info not surfaced: %+v", stats.WAL)
	}
}
