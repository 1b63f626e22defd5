package serve

import (
	"context"
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
)

// newAutoServer starts a server over d that keeps opts.AutoRefine
// (default testAutoQuery) fresh and returns the handler too, so tests
// can count its searches.
func newAutoServer(t *testing.T, d incr.Engine, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	opts.Logf = t.Logf
	if opts.AutoRefine == nil {
		opts.AutoRefine = mustRefineQuery(t, testAutoQuery)
	}
	s := New(d, opts)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// waitIdle waits until no auto-refine pass is running or queued. A
// write's kick happens before its response, so after a POST returns
// this covers every pass that write started.
func waitIdle(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.refreshing.Load() || s.refreshQueued.Load() {
		if time.Now().After(deadline) {
			t.Fatal("auto-refine never went idle")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// postLines posts one JSON add batch of N-Triples lines.
func postLines(t *testing.T, base string, lines []string) ingestResponse {
	t.Helper()
	body, _ := json.Marshal(map[string][]string{"add": lines})
	var ing ingestResponse
	if code := postJSON(t, base+"/triples", string(body), &ing); code != http.StatusOK {
		t.Fatalf("POST /triples = %d (%+v)", code, ing)
	}
	return ing
}

// subjects returns n subjects named prefix0.. each carrying every
// predicate in preds.
func subjects(prefix string, n int, preds ...string) []string {
	var lines []string
	for i := 0; i < n; i++ {
		for _, p := range preds {
			lines = append(lines, fmt.Sprintf("<http://ex/%s%d> <http://ex/%s> <http://ex/o> .", prefix, i, p))
		}
	}
	return lines
}

// autoEpoch returns the epoch of the auto-refine entry (failing when
// there is none).
func autoEpoch(t *testing.T, s *Server) uint64 {
	t.Helper()
	_, epoch, ok := s.autoEntry()
	if !ok {
		t.Fatal("no auto-refine entry")
	}
	return epoch
}

// TestAutoRefineNoRerunWithoutMutation: a write that changes nothing
// starts no search, and a refresh pass at an unchanged epoch skips it.
func TestAutoRefineNoRerunWithoutMutation(t *testing.T) {
	s, ts := newAutoServer(t, incr.NewDataset(incr.Options{}), Options{})
	base := append(subjects("a", 20, "p", "q"), subjects("b", 20, "r")...)
	postLines(t, ts.URL, base)
	waitIdle(t, s)
	if n := s.autoSearches.Load(); n != 1 {
		t.Fatalf("searches after the first write = %d, want 1", n)
	}
	epoch := autoEpoch(t, s)

	if ing := postLines(t, ts.URL, base); ing.Added != 0 {
		t.Fatalf("re-posting the same batch added %d", ing.Added)
	}
	s.kickAutoRefine()
	waitIdle(t, s)
	if n := s.autoSearches.Load(); n != 1 {
		t.Fatalf("searches without a mutation = %d, want 1", n)
	}
	if got := autoEpoch(t, s); got != epoch {
		t.Fatalf("entry epoch moved from %d to %d without a mutation", epoch, got)
	}
}

// TestAutoRefineDrift: a write moving σCov by less than 0.01 keeps the
// entry (no search, not stale); one moving it further re-runs it.
func TestAutoRefineDrift(t *testing.T) {
	s, ts := newAutoServer(t, incr.NewDataset(incr.Options{}), Options{})
	// σCov = (400+200)/(400·3) = 0.5.
	postLines(t, ts.URL, append(subjects("a", 200, "p", "q"), subjects("b", 200, "r")...))
	waitIdle(t, s)
	first := autoEpoch(t, s)

	// One more {p,q} subject: σCov = 602/1203, a drift of 0.0004.
	postLines(t, ts.URL, subjects("c", 1, "p", "q"))
	waitIdle(t, s)
	if n := s.autoSearches.Load(); n != 1 {
		t.Fatalf("searches after a sub-threshold drift = %d, want 1", n)
	}
	if got := autoEpoch(t, s); got != first {
		t.Fatalf("entry epoch %d, want the unchanged %d", got, first)
	}
	var stats struct {
		Refinement struct {
			Epoch uint64 `json:"epoch"`
			K     int    `json:"k"`
		} `json:"refinement"`
		Stale *bool `json:"refineStale"`
	}
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Stale == nil || *stats.Stale || stats.Refinement.Epoch != first {
		t.Fatalf("/stats after a sub-threshold drift: %+v stale=%v", stats.Refinement, stats.Stale)
	}

	// 100 {p,q,r} subjects: σCov = 902/1503, a drift of 0.1.
	ing := postLines(t, ts.URL, subjects("d", 100, "p", "q", "r"))
	waitIdle(t, s)
	if n := s.autoSearches.Load(); n != 2 {
		t.Fatalf("searches after a 0.1 drift = %d, want 2", n)
	}
	if got := autoEpoch(t, s); got != ing.Stats.Epoch {
		t.Fatalf("entry epoch %d, want the live %d", got, ing.Stats.Epoch)
	}
}

// gatedSnapshots holds Snapshot while the test holds mu, parking a
// background search at its start.
type gatedSnapshots struct {
	incr.Engine
	mu *sync.RWMutex
}

func (g gatedSnapshots) Snapshot() *incr.Snapshot {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.Engine.Snapshot()
}

// TestAutoRefineBurstCoalesces: ten effective writes landing while a
// search is parked run at most two searches between them.
func TestAutoRefineBurstCoalesces(t *testing.T) {
	var mu sync.RWMutex
	s, ts := newAutoServer(t, gatedSnapshots{incr.NewDataset(incr.Options{}), &mu}, Options{})
	postLines(t, ts.URL, append(subjects("a", 20, "p", "q"), subjects("b", 20, "r")...))
	waitIdle(t, s)
	before := s.autoSearches.Load()

	mu.Lock()
	var last ingestResponse
	for i := 0; i < 10; i++ {
		// A new predicate per batch moves σCov well past the drift bound.
		last = postLines(t, ts.URL, subjects(fmt.Sprintf("w%d-", i), 10, fmt.Sprintf("n%d", i)))
	}
	mu.Unlock()
	waitIdle(t, s)
	if n := s.autoSearches.Load() - before; n < 1 || n > 2 {
		t.Fatalf("a 10-write burst ran %d searches, want 1 or 2", n)
	}
	if got := autoEpoch(t, s); got != last.Stats.Epoch {
		t.Fatalf("entry epoch %d, want the burst's last %d", got, last.Stats.Epoch)
	}
}

// TestAutoRefineMatchesColdRefine: a preloaded dataset gets its entry
// with no write, GET /refine with the auto-refine query is a cache hit
// that runs no search, and its body is the one an uncached search at
// the same epoch renders (elapsedMs aside).
func TestAutoRefineMatchesColdRefine(t *testing.T) {
	d := incr.NewDataset(incr.Options{})
	preload := append(subjects("a", 30, "p", "q"), subjects("b", 30, "r", "t")...)
	if _, err := d.AddNTriples(strings.NewReader(strings.Join(preload, "\n")), 0); err != nil {
		t.Fatal(err)
	}
	s, ts := newAutoServer(t, d, Options{})
	waitIdle(t, s)
	if got := autoEpoch(t, s); got != d.Epoch() {
		t.Fatalf("preloaded entry at epoch %d, want %d", got, d.Epoch())
	}
	searches := s.autoSearches.Load()

	// The query parameters in another order and another worker count
	// name the same search.
	status, hdr, auto := get(t, ts.URL+"/refine?workers=2&theta=0.9&engine=heuristic&mode=lowestk&fn=cov")
	if status != http.StatusOK || hdr.Get("X-Cache") != "hit" {
		t.Fatalf("auto-refined /refine: status=%d X-Cache=%q, want a hit", status, hdr.Get("X-Cache"))
	}
	if n := s.autoSearches.Load(); n != searches {
		t.Fatalf("a cache hit ran a search (%d → %d)", searches, n)
	}
	status, hdr, cold := get(t, ts.URL+"/refine?"+testAutoQuery+"&nocache=1")
	if status != http.StatusOK || hdr.Get("X-Cache") != "bypass" {
		t.Fatalf("cold /refine: status=%d X-Cache=%q", status, hdr.Get("X-Cache"))
	}
	delete(auto, "elapsedMs")
	delete(cold, "elapsedMs")
	a, _ := json.Marshal(auto)
	c, _ := json.Marshal(cold)
	if string(a) != string(c) {
		t.Fatalf("auto body differs from a cold search:\nauto %s\ncold %s", a, c)
	}
	if auto["k"].(float64) != 2 {
		t.Fatalf("auto k = %v, want 2", auto["k"])
	}
}

// TestRefineCacheKeyIgnoresWorkers: workers= is accepted and ignored,
// so two worker counts at one epoch share a cache entry.
func TestRefineCacheKeyIgnoresWorkers(t *testing.T) {
	ts := newTestServerOpts(t, incr.NewDataset(incr.Options{}), Options{})
	seedTriples(t, ts.URL, 12)
	q := ts.URL + "/refine?fn=cov&mode=highesttheta&k=2&workers="
	if _, hdr, _ := get(t, q+"1"); hdr.Get("X-Cache") != "miss" {
		t.Fatalf("workers=1: X-Cache=%q, want miss", hdr.Get("X-Cache"))
	}
	if _, hdr, _ := get(t, q+"2"); hdr.Get("X-Cache") != "hit" {
		t.Fatalf("workers=2 after workers=1: X-Cache=%q, want hit", hdr.Get("X-Cache"))
	}
}

// TestRefineCanceledRequestCachesNothing: a /refine whose client is
// gone answers 503 from the cancelled search and caches nothing, so the
// same query afterwards is a miss.
func TestRefineCanceledRequestCachesNothing(t *testing.T) {
	s := New(incr.NewDataset(incr.Options{}), Options{Logf: t.Logf})
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	seedTriples(t, ts.URL, 12)
	const q = "/refine?fn=cov&mode=highesttheta&k=2"
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := httptest.NewRecorder()
	s.handleRefine(w, httptest.NewRequest(http.MethodGet, q, nil).WithContext(ctx))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("cancelled /refine: status %d, want 503: %s", w.Code, w.Body)
	}
	if _, hdr, _ := get(t, ts.URL+q); hdr.Get("X-Cache") != "miss" {
		t.Fatalf("after a cancelled search: X-Cache=%q, want miss", hdr.Get("X-Cache"))
	}
}

// TestCloseCancelsBackgroundSearches: Close waits for a search in
// flight, which caches nothing; after Close neither a write nor a
// stale read starts a search.
func TestCloseCancelsBackgroundSearches(t *testing.T) {
	var mu sync.RWMutex
	d := incr.NewDataset(incr.Options{})
	// The default engine: cancelled, it returns refine.ErrCanceled and
	// caches nothing.
	const query = "fn=cov&mode=lowestk&theta=0.9&workers=1"
	s, ts := newAutoServer(t, gatedSnapshots{d, &mu},
		Options{RefineSWR: true, AutoRefine: mustRefineQuery(t, query)})
	postLines(t, ts.URL, append(subjects("a", 20, "p", "q"), subjects("b", 20, "r")...))
	waitIdle(t, s)
	epoch := autoEpoch(t, s)

	// Park a drift-triggered search at its snapshot: once the pass has
	// taken the queued flag, nothing else in it blocks.
	mu.Lock()
	postLines(t, ts.URL, subjects("c", 50, "p", "q", "r", "t"))
	for s.refreshQueued.Load() {
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a background search was in flight")
	case <-time.After(30 * time.Millisecond):
	}
	mu.Unlock()
	<-closed
	if got := autoEpoch(t, s); got != epoch {
		t.Fatalf("a cancelled search cached epoch %d over %d", got, epoch)
	}

	searches := s.autoSearches.Load()
	postLines(t, ts.URL, subjects("e", 50, "p", "t"))
	if n := s.autoSearches.Load(); n != searches {
		t.Fatalf("a write after Close ran a search (%d → %d)", searches, n)
	}
	for i := 0; i < 2; i++ {
		// Stale both times: no revalidation may start, and the refresh
		// latch the first read claimed must be released again.
		if _, hdr, _ := get(t, ts.URL+"/refine?"+query); hdr.Get("X-Cache") != "stale" {
			t.Fatalf("read %d after Close: X-Cache=%q, want stale", i, hdr.Get("X-Cache"))
		}
	}
	if !s.refineCache.BeginRefresh(s.auto.key, d.Epoch()) {
		t.Fatal("refresh latch still held after Close")
	}
	s.refineCache.EndRefresh(s.auto.key)
	if got := autoEpoch(t, s); got != epoch {
		t.Fatalf("entry moved after Close: epoch %d → %d", epoch, got)
	}
}

// TestCloseRacesBackgroundWork closes the server while writers and
// stale readers keep starting background searches: Close returns, and
// once it has, no search starts or lands. Run with -race.
func TestCloseRacesBackgroundWork(t *testing.T) {
	d := incr.NewSharded(2, incr.Options{})
	s, ts := newAutoServer(t, d, Options{RefineSWR: true})
	postLines(t, ts.URL, subjects("a", 20, "p", "q"))
	waitIdle(t, s)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				body, _ := json.Marshal(map[string][]string{"add": subjects(fmt.Sprintf("w%d-%d-", w, i), 3, fmt.Sprintf("n%d", i%7))})
				resp, err := http.Post(ts.URL+"/triples", "application/json", strings.NewReader(string(body)))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp, err = http.Get(ts.URL + "/refine?fn=sim&theta=0.5&workers=1"); err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}(w)
	}
	// With SWR on, an existing entry only moves by a background search;
	// a key with no entry yet may still be filled by an inline miss.
	keys := []string{s.auto.key, mustRefineQuery(t, "fn=sim&theta=0.5").p.key}
	epochs := func() (out [2]uint64) {
		for i, k := range keys {
			_, out[i], _ = s.refineCache.Peek(k)
		}
		return out
	}
	time.Sleep(50 * time.Millisecond)
	s.Close()
	searches, before := s.autoSearches.Load(), epochs()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if n := s.autoSearches.Load(); n != searches {
		t.Fatalf("searches after Close returned: %d → %d", searches, n)
	}
	after := epochs()
	for i := range keys {
		if before[i] != 0 && after[i] != before[i] {
			t.Fatalf("entry %s moved after Close returned: epoch %d → %d", keys[i], before[i], after[i])
		}
	}
}

func TestParseRefineParams(t *testing.T) {
	for _, c := range []struct {
		query string
		err   string // substring of the 400 message; "" = accepted
	}{
		{"", ""},
		{"fn=cov&mode=lowestk&theta=0.9", ""},
		{"fn=cov&mode=highesttheta&k=2&workers=1", ""},
		{"theta=0", ""},
		{"theta=1", ""},
		{"theta=NaN", "bad theta"},
		{"theta=7", "bad theta"},
		{"theta=-0.1", "bad theta"},
		{"mode=highesttheta&k=-1", "bad k"},
		{"mode=highesttheta&k=0", "bad k"},
		{fmt.Sprintf("mode=highesttheta&k=%d", maxRefineK+1), "bad k"},
		{"mode=highesttheta&k=two", "bad k"},
		{"mode=sideways", "unknown mode"},
		{"fn=nosuch", "nosuch"},
		{"engine=quantum", "unknown engine"},
		{"workers=-1", "bad workers"},
		{"restarts=0", "bad restarts"},
		{"maxiters=10001", "bad maxiters"},
	} {
		q, err := url.ParseQuery(c.query)
		if err != nil {
			t.Fatal(err)
		}
		_, err = parseRefineParams(q)
		switch {
		case c.err == "" && err != nil:
			t.Errorf("%q: rejected: %v", c.query, err)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("%q: error %v, want one containing %q", c.query, err, c.err)
		}
	}
	// Spellings of one search share a key; worker counts do not split it.
	a, _ := parseRefineParams(url.Values{"theta": {"0.9"}, "workers": {"1"}})
	b, _ := parseRefineParams(url.Values{"fn": {"cov"}, "mode": {"lowestk"}, "theta": {"0.900"}, "workers": {"4"}})
	if a.key != b.key {
		t.Fatalf("keys %q and %q for one search", a.key, b.key)
	}
}

// FuzzParseRefineParams: parsing never panics, and an accepted query
// has θ in [0,1] (lowestk) or 1 <= k <= maxRefineK (highesttheta) and
// a key that is stable across parses and worker counts.
func FuzzParseRefineParams(f *testing.F) {
	for _, seed := range []string{
		"fn=cov&mode=lowestk&theta=0.9",
		"fn=sim&mode=highesttheta&k=3&workers=2",
		"fn=dep[http://x/p,http://x/q]&theta=0.5&engine=exact",
		"theta=NaN", "theta=1e309", "k=-1&mode=highesttheta", "restarts=64&maxiters=1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		q, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		p, err := parseRefineParams(q)
		if err != nil {
			return
		}
		switch p.mode {
		case "lowestk":
			if p.theta2 <= 0 || p.theta1 < 0 || p.theta1 > p.theta2 {
				t.Fatalf("%q: θ = %d/%d outside [0,1]", raw, p.theta1, p.theta2)
			}
		case "highesttheta":
			if p.k < 1 || p.k > maxRefineK {
				t.Fatalf("%q: k = %d", raw, p.k)
			}
		default:
			t.Fatalf("%q: accepted mode %q", raw, p.mode)
		}
		for _, workers := range []string{q.Get("workers"), "7"} {
			q.Set("workers", workers)
			again, err := parseRefineParams(q)
			if workers == "" {
				q.Del("workers")
				again, err = parseRefineParams(q)
			}
			if err != nil {
				t.Fatalf("%q: re-parse with workers=%q failed: %v", raw, workers, err)
			}
			if again.key != p.key {
				t.Fatalf("%q: key %q with workers=%q, want %q", raw, again.key, workers, p.key)
			}
		}
	})
}
