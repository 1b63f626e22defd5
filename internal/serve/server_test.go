package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/incr"
	"repro/internal/rules"
)

func newTestServer(t *testing.T, autoRefine bool) (*httptest.Server, *incr.Dataset) {
	t.Helper()
	d := incr.NewDataset(incr.Options{})
	return newTestServerWith(t, d, autoRefine), d
}

// testAutoQuery is the auto-refine query the serve tests keep fresh.
const testAutoQuery = "fn=cov&mode=lowestk&theta=0.9&engine=heuristic&workers=1"

func newTestServerWith(t *testing.T, d incr.Engine, autoRefine bool) *httptest.Server {
	t.Helper()
	opts := Options{Logf: t.Logf}
	if autoRefine {
		opts.AutoRefine = mustRefineQuery(t, testAutoQuery)
	}
	ts := httptest.NewServer(New(d, opts))
	t.Cleanup(ts.Close)
	return ts
}

// mustRefineQuery parses a /refine query string.
func mustRefineQuery(t *testing.T, raw string) *RefineParams {
	t.Helper()
	q, err := url.ParseQuery(raw)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := ParseRefineQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	return rp
}

func getJSON(t *testing.T, url string, out interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url, body string, out interface{}) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp.StatusCode
}

func TestIngestSigmaRefineStats(t *testing.T) {
	ts, _ := newTestServer(t, false)

	// JSON batch: two clean sorts of subjects.
	var lines []string
	for i := 0; i < 5; i++ {
		lines = append(lines,
			fmt.Sprintf("<http://ex/a%d> <http://ex/p> <http://ex/o> .", i),
			fmt.Sprintf("<http://ex/a%d> <http://ex/q> <http://ex/o> .", i),
			fmt.Sprintf("<http://ex/b%d> <http://ex/r> <http://ex/o> .", i))
	}
	body, _ := json.Marshal(map[string][]string{"add": lines})
	var ing ingestResponse
	if code := postJSON(t, ts.URL+"/triples", string(body), &ing); code != http.StatusOK {
		t.Fatalf("POST /triples = %d (%+v)", code, ing)
	}
	if ing.Added != 15 || ing.Stats.Subjects != 10 || ing.Stats.Signatures != 2 {
		t.Fatalf("ingest = %+v", ing)
	}

	// σCov live: sort A has p,q; sort B has r → ones=15, |S|·|P|=30.
	var sig struct {
		Fn    string  `json:"fn"`
		Value float64 `json:"value"`
	}
	if code := getJSON(t, ts.URL+"/sigma?fn=cov", &sig); code != http.StatusOK {
		t.Fatalf("GET /sigma = %d", code)
	}
	if sig.Fn != "Cov" || sig.Value != 0.5 {
		t.Fatalf("sigma = %+v, want Cov 0.5", sig)
	}

	// Refinement at θ=0.9 splits them into 2 sorts.
	var ref struct {
		K        int           `json:"k"`
		MinSigma float64       `json:"minSigma"`
		Sorts    []sortSummary `json:"sorts"`
		Exact    bool          `json:"exact"`
	}
	if code := getJSON(t, ts.URL+"/refine?fn=cov&theta=0.9&workers=1", &ref); code != http.StatusOK {
		t.Fatalf("GET /refine = %d (%+v)", code, ref)
	}
	if ref.K != 2 || ref.MinSigma < 0.999 || len(ref.Sorts) != 2 {
		t.Fatalf("refine = %+v", ref)
	}

	// Remove sort B entirely; σCov goes to 1.
	var rm []string
	for i := 0; i < 5; i++ {
		rm = append(rm, fmt.Sprintf("<http://ex/b%d> <http://ex/r> <http://ex/o> .", i))
	}
	body, _ = json.Marshal(map[string][]string{"remove": rm})
	postJSON(t, ts.URL+"/triples", string(body), &ing)
	if ing.Removed != 5 || ing.Stats.Subjects != 5 {
		t.Fatalf("remove = %+v", ing)
	}
	getJSON(t, ts.URL+"/sigma", &sig)
	if sig.Value != 1 {
		t.Fatalf("σCov after removal = %v, want 1", sig.Value)
	}

	var stats struct {
		Stats incr.Stats `json:"stats"`
	}
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK || stats.Stats.Epoch != 2 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestRawNTriplesIngestAndErrors(t *testing.T) {
	ts, d := newTestServer(t, false)

	raw := "<http://ex/s1> <http://ex/p> \"v\" .\n<http://ex/s2> <http://ex/p> <http://ex/o> .\n"
	resp, err := http.Post(ts.URL+"/triples", "application/n-triples", strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var ing ingestResponse
	json.NewDecoder(resp.Body).Decode(&ing)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ing.Added != 2 {
		t.Fatalf("raw ingest: %d %+v", resp.StatusCode, ing)
	}
	if d.Stats().Triples != 2 {
		t.Fatalf("dataset has %d triples", d.Stats().Triples)
	}

	// A malformed line mid-stream → 400, earlier triples applied.
	bad := "<http://ex/s3> <http://ex/p> <http://ex/o> .\nnot a triple\n"
	resp, err = http.Post(ts.URL+"/triples", "application/n-triples", strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&ing)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || ing.Error == "" || ing.Added != 1 {
		t.Fatalf("bad stream: %d %+v", resp.StatusCode, ing)
	}

	// Bad JSON → 400.
	var errResp map[string]string
	if code := postJSON(t, ts.URL+"/triples", `{"add": ["<broken"]}`, &errResp); code != http.StatusBadRequest {
		t.Fatalf("bad JSON line = %d", code)
	}

	// Unknown fn → 400; empty-dataset refine → 409 (after clearing).
	var sig map[string]interface{}
	if code := getJSON(t, ts.URL+"/sigma?fn=nope", &sig); code != http.StatusBadRequest {
		t.Fatalf("bad fn = %d", code)
	}
}

func TestRefineOnEmptyDataset(t *testing.T) {
	ts, _ := newTestServer(t, false)
	var out map[string]interface{}
	if code := getJSON(t, ts.URL+"/refine", &out); code != http.StatusConflict {
		t.Fatalf("empty refine = %d (%v)", code, out)
	}
}

// TestConcurrentSigmaDuringIngestion is the service-level race check:
// concurrent /sigma and /stats reads against the current epoch while
// POST /triples batches land.
func TestConcurrentSigmaDuringIngestion(t *testing.T) {
	ts, _ := newTestServer(t, false)
	// Seed the dataset so readers never observe the empty-dataset 503.
	var seed ingestResponse
	if code := postJSON(t, ts.URL+"/triples",
		`{"add": ["<http://ex/seed> <http://ex/p0> \"v\" ."]}`, &seed); code != http.StatusOK {
		t.Fatalf("seed POST = %d", code)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var sig struct {
					Value float64 `json:"value"`
				}
				if code := getJSON(t, ts.URL+"/sigma?fn=cov", &sig); code != http.StatusOK {
					t.Errorf("sigma = %d", code)
					return
				}
				if sig.Value < 0 || sig.Value > 1 {
					t.Errorf("σ = %v out of range", sig.Value)
					return
				}
				var stats map[string]interface{}
				getJSON(t, ts.URL+"/stats", &stats)
			}
		}()
	}
	for i := 0; i < 30; i++ {
		var lines []string
		for j := 0; j < 20; j++ {
			lines = append(lines, fmt.Sprintf("<http://ex/s%d> <http://ex/p%d> \"v\" .", (i*20+j)%50, j%7))
		}
		body, _ := json.Marshal(map[string][]string{"add": lines})
		var ing ingestResponse
		if code := postJSON(t, ts.URL+"/triples", string(body), &ing); code != http.StatusOK {
			t.Fatalf("POST = %d", code)
		}
	}
	close(stop)
	wg.Wait()
}

// TestBackgroundRefinerKicksIn checks that a write starts the
// auto-refine search and its result surfaces in /stats.
func TestBackgroundRefinerKicksIn(t *testing.T) {
	ts, _ := newTestServer(t, true)
	var lines []string
	for i := 0; i < 10; i++ {
		lines = append(lines,
			fmt.Sprintf("<http://ex/a%d> <http://ex/p> <http://ex/o> .", i),
			fmt.Sprintf("<http://ex/b%d> <http://ex/q> <http://ex/o> .", i))
	}
	body, _ := json.Marshal(map[string][]string{"add": lines})
	var ing ingestResponse
	postJSON(t, ts.URL+"/triples", string(body), &ing)

	deadline := time.Now().Add(5 * time.Second)
	for {
		var stats struct {
			Refinement *struct {
				K        int     `json:"k"`
				MinSigma float64 `json:"minSigma"`
			} `json:"refinement"`
			Stale bool `json:"refineStale"`
		}
		getJSON(t, ts.URL+"/stats", &stats)
		if stats.Refinement != nil {
			if stats.Refinement.K != 2 {
				t.Fatalf("auto-refine k = %d, want 2", stats.Refinement.K)
			}
			if stats.Stale {
				t.Fatal("fresh refinement reported stale")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("background refinement never appeared in /stats")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// GET /sigma for dependency measures must answer from the live
// pair-count tracker — the "stats" field marks the live path, the
// "epoch" field the snapshot fallback — and agree with snapshot
// evaluation as triples come and go.
func TestSigmaDepLiveReads(t *testing.T) {
	ts, d := newTestServer(t, false)
	lines := []string{
		"<http://ex/s1> <http://ex/p1> <http://ex/o> .",
		"<http://ex/s1> <http://ex/p2> <http://ex/o> .",
		"<http://ex/s2> <http://ex/p1> <http://ex/o> .",
		"<http://ex/s3> <http://ex/p2> <http://ex/o> .",
	}
	body, _ := json.Marshal(map[string][]string{"add": lines})
	var ing ingestResponse
	if code := postJSON(t, ts.URL+"/triples", string(body), &ing); code != http.StatusOK {
		t.Fatalf("POST /triples = %d", code)
	}
	check := func(fn, wantRatio string, wantValue float64) {
		t.Helper()
		var resp struct {
			Value float64                `json:"value"`
			Ratio string                 `json:"ratio"`
			Stats map[string]interface{} `json:"stats"`
			Epoch *uint64                `json:"epoch"`
		}
		if code := getJSON(t, ts.URL+"/sigma?fn="+fn, &resp); code != http.StatusOK {
			t.Fatalf("GET /sigma?fn=%s = %d", fn, code)
		}
		if resp.Epoch != nil || resp.Stats == nil {
			t.Fatalf("fn=%s answered from a snapshot, want the live pair path", fn)
		}
		if resp.Ratio != wantRatio || resp.Value != wantValue {
			t.Fatalf("fn=%s = %q (%v), want %q (%v)", fn, resp.Ratio, resp.Value, wantRatio, wantValue)
		}
	}
	// s1 has p1∧p2; s2 only p1; s3 only p2 → Dep[p1,p2] = 1/2,
	// SymDep = 1/3.
	check("dep[http://ex/p1,http://ex/p2]", "1/2 = 0.5000", 0.5)
	check("symdep[http://ex/p1,http://ex/p2]", "1/3 = 0.3333", 1.0/3)
	// Retract s1's p2: no co-occurrence remains.
	body, _ = json.Marshal(map[string][]string{"remove": {lines[1]}})
	if code := postJSON(t, ts.URL+"/triples", string(body), &ing); code != http.StatusOK {
		t.Fatalf("POST /triples = %d", code)
	}
	check("dep[http://ex/p1,http://ex/p2]", "0/2 = 0.0000", 0)
	// Cross-check the live read against snapshot evaluation.
	fn := rules.SymDepFunc("http://ex/p1", "http://ex/p2")
	live, ok := d.SigmaPairs(fn.(rules.PairCountsFunc))
	if !ok {
		t.Fatal("pair tracking off")
	}
	snap, err := fn.Eval(d.Snapshot().View)
	if err != nil {
		t.Fatal(err)
	}
	if live.Fav.Cmp(snap.Fav) != 0 || live.Tot.Cmp(snap.Tot) != 0 {
		t.Fatalf("live %v != snapshot %v", live, snap)
	}
}

// GET /sigma on an empty dataset must answer 503 with a Retry-After
// header and a JSON retry hint — not a misleading zero ratio — and
// recover to 200 once data arrives.
func TestSigmaEmptyDataset503(t *testing.T) {
	ts, _ := newTestServer(t, false)
	for _, fn := range []string{"", "?fn=cov", "?fn=dep[http://a,http://b]"} {
		resp, err := http.Get(ts.URL + "/sigma" + fn)
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Error             string `json:"error"`
			RetryAfterSeconds int    `json:"retryAfterSeconds"`
		}
		json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("empty /sigma%s = %d, want 503", fn, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" || body.Error == "" || body.RetryAfterSeconds < 1 {
			t.Fatalf("empty /sigma%s: header %q, body %+v", fn, resp.Header.Get("Retry-After"), body)
		}
	}
	// A bad fn still reports 400, even while empty.
	var e map[string]string
	if code := getJSON(t, ts.URL+"/sigma?fn=nope", &e); code != http.StatusBadRequest {
		t.Fatalf("bad fn on empty = %d, want 400", code)
	}
	var ing ingestResponse
	postJSON(t, ts.URL+"/triples", `{"add": ["<http://ex/s> <http://ex/p> <http://ex/o> ."]}`, &ing)
	var sig struct {
		Value float64 `json:"value"`
	}
	if code := getJSON(t, ts.URL+"/sigma?fn=cov", &sig); code != http.StatusOK || sig.Value != 1 {
		t.Fatalf("post-ingest /sigma = %d (%v), want 200 value 1", code, sig.Value)
	}
}

// TestShardedServer drives the full endpoint surface against the
// sharded engine: JSON and raw-NT ingest through the per-shard worker
// pool, live merged σ reads, refinement on merged snapshots, and the
// per-shard stats breakdown.
func TestShardedServer(t *testing.T) {
	sh := incr.NewSharded(3, incr.Options{})
	ts := newTestServerWith(t, sh, false)

	var lines []string
	for i := 0; i < 6; i++ {
		lines = append(lines,
			fmt.Sprintf("<http://ex/a%d> <http://ex/p> <http://ex/o> .", i),
			fmt.Sprintf("<http://ex/a%d> <http://ex/q> <http://ex/o> .", i),
			fmt.Sprintf("<http://ex/b%d> <http://ex/r> <http://ex/o> .", i))
	}
	body, _ := json.Marshal(map[string][]string{"add": lines})
	var ing ingestResponse
	if code := postJSON(t, ts.URL+"/triples", string(body), &ing); code != http.StatusOK {
		t.Fatalf("POST /triples = %d (%+v)", code, ing)
	}
	if ing.Added != 18 || ing.Stats.Subjects != 12 || ing.Stats.Signatures != 2 {
		t.Fatalf("sharded ingest = %+v", ing)
	}

	// Raw N-Triples through the shard worker pool.
	raw := "<http://ex/c1> <http://ex/p> \"v\" .\n<http://ex/c2> <http://ex/q> <http://ex/o> .\n"
	resp, err := http.Post(ts.URL+"/triples", "application/n-triples", strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&ing)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ing.Added != 2 {
		t.Fatalf("raw sharded ingest: %d %+v", resp.StatusCode, ing)
	}

	// Live merged σ: cov answers from merged counts, dep from merged
	// pair aggregates (the "stats" field marks the live path).
	var sig struct {
		Value float64                `json:"value"`
		Stats map[string]interface{} `json:"stats"`
	}
	if code := getJSON(t, ts.URL+"/sigma?fn=dep[http://ex/p,http://ex/q]", &sig); code != http.StatusOK {
		t.Fatalf("GET /sigma dep = %d", code)
	}
	if sig.Stats == nil {
		t.Fatal("dep σ not answered from the live merged aggregates")
	}
	// 6 a-subjects have p∧q, c1 has p only: Dep = 6/7.
	if want := 6.0 / 7; sig.Value < want-1e-9 || sig.Value > want+1e-9 {
		t.Fatalf("dep = %v, want %v", sig.Value, want)
	}

	// Refinement against the merged snapshot.
	var ref struct {
		K        int     `json:"k"`
		MinSigma float64 `json:"minSigma"`
	}
	if code := getJSON(t, ts.URL+"/refine?fn=cov&theta=0.9&workers=1", &ref); code != http.StatusOK {
		t.Fatalf("GET /refine = %d (%+v)", code, ref)
	}
	if ref.K < 2 || ref.MinSigma < 0.9 {
		t.Fatalf("sharded refine = %+v", ref)
	}

	// /stats carries the per-shard breakdown, consistent with the merge.
	var stats struct {
		Stats  incr.Stats   `json:"stats"`
		Shards []incr.Stats `json:"shards"`
	}
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("GET /stats = %d", code)
	}
	if len(stats.Shards) != 3 {
		t.Fatalf("stats has %d shards, want 3", len(stats.Shards))
	}
	sum := 0
	for _, s := range stats.Shards {
		sum += s.Triples
	}
	if sum != stats.Stats.Triples || stats.Stats.Triples != 20 {
		t.Fatalf("shard triples sum %d, merged %d, want 20", sum, stats.Stats.Triples)
	}
}
