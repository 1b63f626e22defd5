// Package serve exposes an incremental structuredness dataset
// (internal/incr) over HTTP: triple ingestion, live σ reads and
// on-demand refinement against consistent snapshots. It is the
// rdfserved engine, factored out of the command so the full
// request surface is testable with httptest.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/incr"
	"repro/internal/metrics"
	"repro/internal/protect"
	"repro/internal/rdf"
	"repro/internal/refine"
	"repro/internal/rules"
)

// Options configures a Server.
type Options struct {
	// MaxBodyBytes caps request bodies (default 64 MiB).
	MaxBodyBytes int64
	// IngestBatch is the Apply batch size for streamed N-Triples bodies
	// (default 10000 triples).
	IngestBatch int
	// AutoRefine, when set, is the /refine query whose cache entry the
	// server keeps fresh: after every effective write a background
	// search re-runs it on the current snapshot (single-flight, at most
	// one more queued) unless σ moved less than autoRefineDrift since the
	// cached result. GET /stats reports that entry, and GET /refine with
	// the same parameters is served from it. It needs the refine cache:
	// with RefineCacheSize < 0 it is ignored.
	AutoRefine *RefineParams
	// Logf sinks background-refresh errors and slow-request lines
	// (default log.Printf).
	Logf func(format string, args ...interface{})
	// Durable, when set, is the write-ahead log attached to the
	// engine: POST /triples waits on its Barrier before responding,
	// so a 200 with durable:true means the batch survives a crash.
	Durable DurabilityBarrier
	// Metrics, when set, instruments every endpoint (request counters,
	// latency histograms, in-flight gauges), registers the
	// refine-staleness gauge and the search instrumentation counters,
	// and serves the registry at GET /metrics. The caller registers the
	// engine's own series (Engine.RegisterMetrics) — the server only
	// claims the rdf_http_*, rdf_refine_* and rdf_sigma_* families, so
	// at most one Server per registry.
	Metrics *metrics.Registry
	// EnablePprof mounts net/http/pprof under GET /debug/pprof/.
	EnablePprof bool
	// SlowRequest, when > 0, logs any request slower than this through
	// Logf, tagged with the request's trace ID (every instrumented
	// response carries it in the X-Trace-Id header).
	SlowRequest time.Duration
	// WAL, when set, is surfaced in GET /stats: durability mode and
	// what recovery replayed at boot (previously only logged).
	WAL *WALInfo
	// Protect, when set, is the per-class admission front: /sigma,
	// /triples and /refine acquire the read/write/refine gate before any
	// work, and excess load is shed with 429 + Retry-After instead of
	// accepted and half-served. The server registers its rdf_admission_*
	// families when Metrics is also set. Index, /stats and /metrics are
	// never gated — the operator's view must survive overload.
	Protect *protect.Limiter
	// SigmaCacheSize bounds the epoch-keyed /sigma response cache
	// (entries). 0 means the default (256); negative disables caching.
	SigmaCacheSize int
	// RefineCacheSize bounds the epoch-keyed /refine response cache
	// (entries). 0 means the default (64); negative disables caching.
	RefineCacheSize int
	// RefineSWR enables stale-while-revalidate on /refine: a request
	// whose cached result is for an older epoch is answered immediately
	// from that result (flagged stale, with both epochs) while a
	// single-flight background re-refinement brings the cache current.
	RefineSWR bool
	// WriteDeadline bounds POST /triples end to end — body read, apply,
	// WAL backlog wait and durability barrier. Past it the request is
	// either shed (429, nothing or a prefix applied) or answered 200
	// with durable:false (applied, fsync pending). 0 means no bound.
	WriteDeadline time.Duration
	// MaxBacklogBytes bounds the WAL group-commit backlog: an ingest
	// request first waits (within its deadline) for the backlog to
	// drain below this, so a write burst blocks at the front door
	// instead of growing the pending buffers without bound. 0 means
	// unbounded. Requires Backlog.
	MaxBacklogBytes int64
	// Backlog is the WAL backlog waiter (implemented by *wal.Store).
	Backlog BacklogWaiter
	// ClusterWorker mounts the internal cluster-worker endpoints
	// (/internal/health, /internal/agg, /internal/view) a coordinator
	// reads. Only for nodes behind a coordinator: the endpoints expose
	// raw aggregate state and bypass admission gating by design.
	ClusterWorker bool
	// RateLimit, when set, enforces per-client request quotas in front
	// of the admission gate: a client over its token budget is shed
	// with 429 + Retry-After before it can queue for a slot. Internal
	// worker endpoints, index, /stats and /metrics are exempt.
	RateLimit *protect.RateLimiter
}

// BacklogWaiter is the slice of the WAL store the ingest backpressure
// path needs (implemented by *wal.Store).
type BacklogWaiter interface {
	// AwaitBacklog blocks until the group-commit backlog is at or below
	// max bytes, the store fails, or ctx expires (returning ctx.Err()).
	AwaitBacklog(ctx context.Context, max int64) error
	// PendingBytes returns the current backlog (surfaced in /stats).
	PendingBytes() int64
}

// WALInfo is the operator-facing durability summary shown in GET
// /stats. The command layer fills it from wal.Open's RecoveryStats so
// serve stays decoupled from the wal package.
type WALInfo struct {
	// Mode is the fsync policy ("batch", "interval", "off").
	Mode string `json:"mode"`
	// Synchronous reports whether ingest barriers wait for stable
	// storage (false when fsync is off).
	Synchronous bool        `json:"synchronous"`
	Recovery    WALRecovery `json:"recovery"`
}

// WALRecovery mirrors wal.RecoveryStats for the /stats JSON.
type WALRecovery struct {
	Terms       int   `json:"terms"`
	Checkpoints int   `json:"checkpoints"`
	Records     int   `json:"records"`
	Skipped     int   `json:"skipped"`
	Bytes       int64 `json:"bytes"`
	TornBytes   int64 `json:"tornBytes"`
	DurationMs  int64 `json:"durationMs"`
}

// DurabilityBarrier is the slice of the WAL store the server needs
// (implemented by *wal.Store).
type DurabilityBarrier interface {
	// BarrierCtx blocks until every batch applied before the call is
	// durable per the store's sync policy, or ctx expires (returning
	// ctx.Err() — the batch stays applied and becomes durable later).
	BarrierCtx(ctx context.Context) error
	// Synchronous reports whether the barrier actually waits for stable
	// storage (false when fsync is disabled).
	Synchronous() bool
}

// Server is the rdfserved HTTP handler. It serves any incr.Engine —
// the single Dataset or the sharded engine; with a Sharded, ingest
// batches route through its per-shard worker pool and /stats reports
// per-shard breakdowns.
type Server struct {
	d    incr.Engine
	opts Options
	mux  *http.ServeMux
	met  *serverMetrics
	// auto is Options.AutoRefine's search (nil when off); autoSearches
	// counts the searches the background refresh actually ran.
	auto         *refineParams
	autoSearches atomic.Int64
	// refreshing is the single-flight latch for auto-refine refreshes;
	// refreshQueued remembers a batch that arrived mid-refresh.
	refreshing    atomic.Bool
	refreshQueued atomic.Bool
	// bg is cancelled by Close to stop every background search; bgMu
	// orders Close against goroutines starting, and bgWG tracks the
	// running ones.
	bg       context.Context
	bgCancel context.CancelFunc
	bgMu     sync.Mutex
	bgWG     sync.WaitGroup
	// sigmaCache / refineCache are the epoch-keyed response caches; nil
	// when disabled.
	sigmaCache  *protect.Cache
	refineCache *protect.Cache
}

// serverMetrics is the per-endpoint HTTP instrumentation family set.
type serverMetrics struct {
	requests *metrics.CounterVec   // endpoint, code
	latency  *metrics.HistogramVec // endpoint
	inFlight *metrics.GaugeVec     // endpoint
	slow     *metrics.CounterVec   // endpoint
}

// New returns a handler serving d.
func New(d incr.Engine, opts Options) *Server {
	if opts.MaxBodyBytes == 0 {
		opts.MaxBodyBytes = 64 << 20
	}
	if opts.IngestBatch == 0 {
		opts.IngestBatch = 10000
	}
	if opts.Logf == nil {
		opts.Logf = log.Printf
	}
	if opts.SigmaCacheSize == 0 {
		opts.SigmaCacheSize = 256
	}
	if opts.RefineCacheSize == 0 {
		opts.RefineCacheSize = 64
	}
	s := &Server{d: d, opts: opts, mux: http.NewServeMux()}
	s.bg, s.bgCancel = context.WithCancel(context.Background())
	if opts.SigmaCacheSize > 0 {
		s.sigmaCache = protect.NewCache(opts.SigmaCacheSize)
	}
	if opts.RefineCacheSize > 0 {
		s.refineCache = protect.NewCache(opts.RefineCacheSize)
		if opts.AutoRefine != nil {
			s.auto = &opts.AutoRefine.p
		}
	}
	if reg := opts.Metrics; reg != nil {
		s.met = &serverMetrics{
			requests: reg.CounterVec("rdf_http_requests_total",
				"HTTP requests served, by endpoint and status code.", "endpoint", "code"),
			latency: reg.HistogramVec("rdf_http_request_seconds",
				"HTTP request latency, by endpoint.", metrics.DefLatencyBuckets, "endpoint"),
			inFlight: reg.GaugeVec("rdf_http_in_flight",
				"Requests currently being served, by endpoint.", "endpoint"),
			slow: reg.CounterVec("rdf_http_slow_requests_total",
				"Requests slower than the -slow-request threshold, by endpoint.", "endpoint"),
		}
		// Refine staleness: how many epochs the live dataset has
		// advanced past the snapshot the auto-refine entry was computed
		// on — the "is the background refresh keeping up" signal. With
		// no entry yet (or an evicted one), everything is stale (the full
		// epoch); without auto-refine the series reads 0.
		reg.GaugeFunc("rdf_refine_staleness_epochs",
			"Epochs the live dataset is ahead of the last refinement's snapshot.",
			s.refineStaleness)
		reg.AttachCounter("rdf_sigma_signature_scans_total",
			"Full signature-list scans by the pairwise closed forms (process-wide).",
			rules.SignatureScanCounter())
		reg.AttachCounter("rdf_refine_restarts_total",
			"Refinement local-search restarts computed; a θ sweep computes each at most once (process-wide).",
			refine.RestartCounter())
		if opts.Protect != nil {
			opts.Protect.Register(reg)
		}
		if opts.RateLimit != nil {
			opts.RateLimit.Register(reg)
		}
		// The cache families are registered (and their children
		// materialized at 0) whether or not the caches are enabled, so a
		// scrape always carries the series.
		hits := reg.CounterVec("rdf_cache_hits_total",
			"Epoch-keyed response cache hits, by endpoint.", "endpoint")
		misses := reg.CounterVec("rdf_cache_misses_total",
			"Epoch-keyed response cache misses, by endpoint.", "endpoint")
		stale := reg.CounterVec("rdf_cache_stale_served_total",
			"Stale cached responses served while revalidating, by endpoint.", "endpoint")
		for _, ep := range []string{"sigma", "refine"} {
			hits.With(ep)
			misses.With(ep)
			stale.With(ep)
		}
		if s.sigmaCache != nil {
			s.sigmaCache.SetMetrics(hits.With("sigma"), misses.With("sigma"), nil)
		}
		if s.refineCache != nil {
			s.refineCache.SetMetrics(hits.With("refine"), misses.With("refine"), stale.With("refine"))
		}
	}
	s.handle("GET /{$}", "index", s.handleIndex)
	s.handle("POST /triples", "triples", s.gated(protect.ClassWrite, s.handleTriples))
	s.handle("GET /sigma", "sigma", s.gated(protect.ClassRead, s.handleSigma))
	s.handle("GET /refine", "refine", s.gated(protect.ClassRefine, s.handleRefine))
	s.handle("GET /stats", "stats", s.handleStats)
	if opts.ClusterWorker {
		s.mountWorker()
	}
	if opts.Metrics != nil {
		// The scrape itself is served unwrapped: scrapes polling at a
		// fixed cadence would otherwise dominate the request histograms.
		s.mux.Handle("GET /metrics", opts.Metrics.Handler())
	}
	if opts.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	// A preloaded dataset gets its auto-refine entry without waiting for
	// the first write.
	s.kickAutoRefine()
	return s
}

// Close cancels every background search — auto-refine refreshes and
// stale-while-revalidate recomputes — and waits for them to return. A
// cancelled search caches nothing. The handler keeps serving; later
// writes and stale reads just start no background work.
func (s *Server) Close() {
	s.bgMu.Lock()
	s.bgCancel()
	s.bgMu.Unlock()
	s.bgWG.Wait()
}

// goBackground runs f on a goroutine Close waits for, unless Close has
// already run (then it reports false and f never runs).
func (s *Server) goBackground(f func()) bool {
	s.bgMu.Lock()
	defer s.bgMu.Unlock()
	if s.bg.Err() != nil {
		return false
	}
	s.bgWG.Add(1)
	go func() {
		defer s.bgWG.Done()
		f()
	}()
	return true
}

// refineStaleness is the rdf_refine_staleness_epochs gauge read.
func (s *Server) refineStaleness() float64 {
	if s.auto == nil {
		return 0
	}
	epoch := s.d.Epoch()
	_, at, ok := s.autoEntry()
	if !ok {
		return float64(epoch)
	}
	if epoch <= at {
		return 0
	}
	return float64(epoch - at)
}

// handle mounts a handler, wrapped with per-endpoint instrumentation
// (and slow-request tracing) when configured.
func (s *Server) handle(pattern, endpoint string, h http.HandlerFunc) {
	if s.met == nil && s.opts.SlowRequest <= 0 {
		s.mux.HandleFunc(pattern, h)
		return
	}
	// Children are materialized once here so the request path never
	// touches the vec maps (status-code children are the exception —
	// cached for the dominant 200).
	var (
		latency  *metrics.Histogram
		inFlight *metrics.Gauge
		slow     *metrics.Counter
		ok200    *metrics.Counter
	)
	if s.met != nil {
		latency = s.met.latency.With(endpoint)
		inFlight = s.met.inFlight.With(endpoint)
		slow = s.met.slow.With(endpoint)
		ok200 = s.met.requests.With(endpoint, "200")
	}
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		trace := newTraceID()
		w.Header().Set("X-Trace-Id", trace)
		if inFlight != nil {
			inFlight.Add(1)
			defer inFlight.Add(-1)
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		h(sw, r)
		elapsed := time.Since(t0)
		if s.met != nil {
			latency.Observe(elapsed.Seconds())
			if sw.status == http.StatusOK {
				ok200.Inc()
			} else {
				s.met.requests.With(endpoint, strconv.Itoa(sw.status)).Inc()
			}
		}
		if s.opts.SlowRequest > 0 && elapsed >= s.opts.SlowRequest {
			if slow != nil {
				slow.Inc()
			}
			s.opts.Logf("rdfserved: slow request trace=%s %s %s status=%d elapsed=%s",
				trace, r.Method, r.URL.RequestURI(), sw.status, elapsed.Round(time.Microsecond))
		}
	})
}

// gated wraps a handler with the per-client rate limit and admission
// control for class c: an over-quota client is shed first (before it
// can occupy a queue slot), then the request acquires the class's gate
// (queuing within its context deadline) or is shed with 429 before
// the handler runs any work.
func (s *Server) gated(c protect.Class, h http.HandlerFunc) http.HandlerFunc {
	if s.opts.Protect != nil {
		g := s.opts.Protect.Gate(c)
		inner := h
		h = func(w http.ResponseWriter, r *http.Request) {
			release, err := g.Acquire(r.Context())
			if err != nil {
				writeShed(w, "%s overloaded: %v", c, err)
				return
			}
			defer release()
			inner(w, r)
		}
	}
	if rl := s.opts.RateLimit; rl != nil {
		inner := h
		h = func(w http.ResponseWriter, r *http.Request) {
			if ok, retry := rl.Allow(clientKey(r)); !ok {
				secs := int(retry/time.Second) + 1
				w.Header().Set("Retry-After", strconv.Itoa(secs))
				writeJSON(w, http.StatusTooManyRequests, map[string]interface{}{
					"error":             "client rate limit exceeded",
					"retryAfterSeconds": secs,
				})
				return
			}
			inner(w, r)
		}
	}
	return h
}

// ClientIDHeader names the header a client uses to identify itself to
// the per-client rate limiter; without it the limit keys on the
// remote IP.
const ClientIDHeader = "X-Client-Id"

// clientKey extracts the rate-limit key: the client ID header when
// present, else the remote address with the ephemeral port stripped
// (so one host maps to one bucket across connections).
func clientKey(r *http.Request) string {
	if id := r.Header.Get(ClientIDHeader); id != "" {
		return id
	}
	host := r.RemoteAddr
	if i := strings.LastIndexByte(host, ':'); i >= 0 && !strings.HasSuffix(host, "]") {
		host = host[:i]
	}
	return host
}

// shedRetryAfterSeconds is the retry hint on overload 429s, mirroring
// the empty-dataset 503 convention.
const shedRetryAfterSeconds = 1

// writeShed writes the overload rejection: 429 with a Retry-After
// header and retryAfterSeconds in the JSON body. A shed request did no
// work — the client retries the identical call after the hint.
func writeShed(w http.ResponseWriter, format string, args ...interface{}) {
	w.Header().Set("Retry-After", strconv.Itoa(shedRetryAfterSeconds))
	writeJSON(w, http.StatusTooManyRequests, map[string]interface{}{
		"error":             fmt.Sprintf(format, args...),
		"retryAfterSeconds": shedRetryAfterSeconds,
	})
}

// statusWriter captures the response status for the request counter's
// code label.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap exposes the underlying writer to http.ResponseController, so
// the ingest path can set per-request read deadlines through the
// instrumentation wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// traceState seeds trace IDs: a per-process random base (wall clock at
// init) mixed with an atomic sequence — unique within a process run
// and unlikely to collide across restarts, at the cost of one atomic
// add per request.
var (
	traceBase    = uint64(time.Now().UnixNano())
	traceCounter atomic.Uint64
)

// newTraceID returns a 16-hex-digit request trace ID (splitmix64 over
// base + sequence).
func newTraceID() string {
	z := traceBase + 0x9E3779B97F4A7C15*traceCounter.Add(1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	var b [16]byte
	const hex = "0123456789abcdef"
	for i := range b {
		b[i] = hex[z>>60]
		z <<= 4
	}
	return string(b[:])
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// marshalBody renders v exactly as writeJSON would (indented, trailing
// newline) into a byte slice the response caches can hold.
func marshalBody(v interface{}) []byte {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		b, _ = json.Marshal(map[string]string{"error": err.Error()})
	}
	return append(b, '\n')
}

// writeBody writes a pre-rendered JSON body with the cache verdict
// ("hit", "miss", "stale", "bypass") in the X-Cache header.
func writeBody(w http.ResponseWriter, verdict string, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", verdict)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"service": "rdfserved",
		"endpoints": []string{
			"POST /triples   {\"add\": [\"<s> <p> <o> .\"], \"remove\": [...]} or raw N-Triples body",
			"GET  /sigma?fn=cov|sim|dep[p1,p2]|symdep[p1,p2]|depdisj[p1,p2]",
			"GET  /refine?fn=cov&mode=lowestk|highesttheta&theta=0.9&k=2&engine=auto",
			"GET  /stats",
		},
		"stats": s.d.Stats(),
	})
}

// ingestResponse is the POST /triples reply. Durable is absent when
// the server runs without a data directory, true when the batch was
// fsynced before the response, and false when fsync is off, the WAL
// failed, or the request deadline expired before the covering fsync
// (the batch stays applied and becomes durable shortly).
// RetryAfterSeconds rides on 429 sheds, matching the Retry-After
// header.
type ingestResponse struct {
	Added             int        `json:"added"`
	Removed           int        `json:"removed"`
	Durable           *bool      `json:"durable,omitempty"`
	RetryAfterSeconds int        `json:"retryAfterSeconds,omitempty"`
	Stats             incr.Stats `json:"stats"`
	Error             string     `json:"error,omitempty"`
}

// awaitDurable runs the WAL barrier after a mutating batch, bounded by
// the request context. It returns the response's durable field (nil
// when no WAL is attached) and an error when the batch applied in
// memory but is not yet known durable — a context error for a deadline
// (report durable=false, not a failure) or the store's latched fault.
func (s *Server) awaitDurable(ctx context.Context) (*bool, error) {
	if s.opts.Durable == nil {
		return nil, nil
	}
	durable := new(bool)
	if err := s.opts.Durable.BarrierCtx(ctx); err != nil {
		return durable, err
	}
	*durable = s.opts.Durable.Synchronous()
	return durable, nil
}

// isCtxErr reports whether err is a context deadline/cancellation —
// overload or client impatience, never a server fault.
func isCtxErr(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// isBodyTooLarge reports whether err is MaxBytesReader tripping.
func isBodyTooLarge(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe)
}

// bodyLimitHit probes whether the MaxBytesReader tripped. A body cut
// off at the limit surfaces as a parse error on the truncated final
// line — not as a MaxBytesError — so on any decode error ask the
// reader itself: at the limit, one more read fails with the marker
// error; short of it, the probe reads a buffered byte and the decode
// error stands on its own.
func bodyLimitHit(body io.Reader) bool {
	var one [1]byte
	_, err := body.Read(one[:])
	return isBodyTooLarge(err)
}

func parseLines(lines []string, what string) ([]rdf.Triple, error) {
	out := make([]rdf.Triple, 0, len(lines))
	for i, line := range lines {
		t, ok, err := rdf.ParseNTriplesLine(line, i+1)
		if err != nil {
			return nil, fmt.Errorf("%s[%d]: %v", what, i, err)
		}
		if ok {
			out = append(out, t)
		}
	}
	return out, nil
}

func (s *Server) handleTriples(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	if d := s.opts.WriteDeadline; d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
		// Bound the body read too: a slow-trickling client trips the
		// connection read deadline instead of parking an admitted write
		// slot forever. Ignore ErrNotSupported (httptest recorders).
		_ = http.NewResponseController(w).SetReadDeadline(time.Now().Add(d))
	}
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	defer func() { _, _ = io.Copy(io.Discard, body); _ = body.Close() }()

	// Backpressure: admit the batch only once the WAL group-commit
	// backlog is under its bound. Blocking here (within the deadline)
	// is what keeps a write burst from growing the pending buffers
	// without bound; a deadline expiry is a shed, not a failure —
	// nothing was applied yet.
	if s.opts.Backlog != nil && s.opts.MaxBacklogBytes > 0 {
		if err := s.opts.Backlog.AwaitBacklog(ctx, s.opts.MaxBacklogBytes); err != nil {
			if isCtxErr(err) {
				writeShed(w, "ingest backlog full: %v", err)
				return
			}
			writeError(w, http.StatusInternalServerError, "durability layer failed: %v", err)
			return
		}
	}

	ct := r.Header.Get("Content-Type")
	var added, removed int
	if strings.HasPrefix(ct, "application/json") {
		var req struct {
			Add    []string `json:"add"`
			Remove []string `json:"remove"`
		}
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			if isBodyTooLarge(err) || bodyLimitHit(body) {
				writeError(w, http.StatusRequestEntityTooLarge,
					"request body exceeds the %d-byte limit", s.opts.MaxBodyBytes)
				return
			}
			writeError(w, http.StatusBadRequest, "bad JSON body: %v", err)
			return
		}
		add, err := parseLines(req.Add, "add")
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		remove, err := parseLines(req.Remove, "remove")
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		added, removed = s.d.Apply(add, remove)
	} else {
		// Raw N-Triples: stream adds in bounded batches through the
		// interning decoder, so arbitrarily large dumps ingest without
		// building a triple list in memory and without allocating
		// strings for terms the dataset has already seen. The context
		// bounds the stream: past the deadline the decode stops and the
		// request is shed with the applied prefix reported (re-posting
		// the same document is idempotent — applied triples dedup).
		var err error
		added, err = s.d.AddNTriplesCtx(ctx, body, s.opts.IngestBatch)
		if err != nil {
			if added > 0 {
				s.kickAutoRefine()
			}
			durable, _ := s.awaitDurable(ctx)
			status := http.StatusBadRequest
			msg := fmt.Sprintf("stream aborted: %v (triples before the error were applied)", err)
			retryAfter := 0
			switch {
			case isCtxErr(err):
				status = http.StatusTooManyRequests
				msg = fmt.Sprintf("ingest deadline exceeded after %d triples (applied; re-post to continue): %v", added, err)
				retryAfter = shedRetryAfterSeconds
				w.Header().Set("Retry-After", strconv.Itoa(shedRetryAfterSeconds))
			case isBodyTooLarge(err) || bodyLimitHit(body):
				status = http.StatusRequestEntityTooLarge
				msg = fmt.Sprintf("request body exceeds the %d-byte limit (%d triples before the limit were applied)", s.opts.MaxBodyBytes, added)
			}
			writeJSON(w, status, ingestResponse{
				Added: added, Durable: durable, RetryAfterSeconds: retryAfter,
				Stats: s.d.Stats(), Error: msg,
			})
			return
		}
	}
	if added+removed > 0 {
		s.kickAutoRefine()
	}
	durable, err := s.awaitDurable(ctx)
	if err != nil {
		if isCtxErr(err) {
			// The batch is applied and will be durable at the next flush
			// cycle; the deadline just expired before the covering fsync.
			// Durable=false already tells the client exactly that.
			writeJSON(w, http.StatusOK, ingestResponse{
				Added: added, Removed: removed, Durable: durable, Stats: s.d.Stats(),
				Error: "durability pending: request deadline expired before the covering fsync",
			})
			return
		}
		writeJSON(w, http.StatusInternalServerError, ingestResponse{
			Added: added, Removed: removed, Durable: durable, Stats: s.d.Stats(),
			Error: fmt.Sprintf("batch applied in memory but not durable: %v", err),
		})
		return
	}
	writeJSON(w, http.StatusOK, ingestResponse{Added: added, Removed: removed, Durable: durable, Stats: s.d.Stats()})
}

// kickAutoRefine triggers a background auto-refine refresh, coalescing
// bursts: one refresh runs at a time, and a batch landing mid-refresh
// queues exactly one more pass. The queued flag is raised before the
// single-flight latch is tried, so a kick racing a worker's exit is
// never lost — either the worker's drain loop or its exit re-check
// observes it, or this kick's own latch attempt succeeds.
func (s *Server) kickAutoRefine() {
	if s.auto == nil {
		return
	}
	s.refreshQueued.Store(true)
	s.tryStartRefresh()
}

func (s *Server) tryStartRefresh() {
	if !s.refreshing.CompareAndSwap(false, true) {
		return
	}
	started := s.goBackground(func() {
		for s.bg.Err() == nil && s.refreshQueued.CompareAndSwap(true, false) {
			if err := s.refreshAuto(); err != nil {
				s.opts.Logf("rdfserved: background refine %s: %v", s.auto.key, err)
			}
		}
		s.refreshing.Store(false)
		// A kick may have queued between the drain loop's last check and
		// the latch release.
		if s.refreshQueued.Load() {
			s.tryStartRefresh()
		}
	})
	if !started {
		s.refreshing.Store(false)
	}
}

// autoRefineDrift is the σ drift below which a write does not re-run
// the auto-refine search: the paper's θ grid granularity.
const autoRefineDrift = 0.01

// refreshAuto is one auto-refine pass: when the cached entry is stale,
// search the current snapshot and cache the result under its epoch.
func (s *Server) refreshAuto() error {
	if stale, err := s.autoStale(); err != nil || !stale {
		return err
	}
	snap := s.d.Snapshot()
	if snap.View.NumSignatures() == 0 {
		return nil
	}
	s.autoSearches.Add(1)
	return s.searchAndCache(s.auto, snap)
}

// autoEntry returns the auto-refine cache entry and its epoch without
// touching the cache's LRU order or client-facing tallies.
func (s *Server) autoEntry() (*cachedRefine, uint64, bool) {
	v, epoch, ok := s.refineCache.Peek(s.auto.key)
	if !ok {
		return nil, 0, false
	}
	return v.(*cachedRefine), epoch, true
}

// autoStale reports whether the auto-refine entry no longer stands for
// the live dataset: it is missing (never computed, or evicted), or it
// is from an older epoch and σ has since moved by autoRefineDrift or
// more.
func (s *Server) autoStale() (bool, error) {
	cr, epoch, ok := s.autoEntry()
	if !ok {
		return true, nil
	}
	if epoch >= s.d.Epoch() {
		return false, nil
	}
	now, err := s.sigmaNow(s.auto.fn)
	if err != nil {
		return false, err
	}
	return math.Abs(now-cr.sigma) >= autoRefineDrift, nil
}

// sigmaNow is the live σ under fn: the engine's closed forms when fn
// has one (and the pair tracker is on), else a snapshot evaluation.
func (s *Server) sigmaNow(fn rules.Func) (float64, error) {
	ratio, _, live := s.d.SigmaStats(fn)
	if !live {
		var err error
		if ratio, err = fn.Eval(s.d.Snapshot().View); err != nil {
			return 0, err
		}
	}
	return ratio.Value(), nil
}

// searchAndCache is a background search: run p on snap under the Close
// cancel and cache the result. A search cancelled by Close caches
// nothing and is not an error.
func (s *Server) searchAndCache(p *refineParams, snap *incr.Snapshot) error {
	bg := *p
	bg.opts.Cancel = s.bg.Done()
	out, err := bg.run(snap)
	if errors.Is(err, refine.ErrCanceled) {
		return nil
	}
	if err != nil {
		return err
	}
	resp := refineResponse(snap, p.fn.Name(), p.mode, out)
	s.putRefine(p, snap, resp, marshalBody(resp))
	return nil
}

// putRefine caches a rendered /refine result under its snapshot epoch.
// An entry under the auto-refine key also records σ at that snapshot,
// the reference point of the drift check.
func (s *Server) putRefine(p *refineParams, snap *incr.Snapshot, resp map[string]interface{}, body []byte) {
	cr := &cachedRefine{body: body, resp: resp}
	if s.auto != nil && p.key == s.auto.key {
		sigma, err := p.fn.Eval(snap.View)
		if err != nil {
			s.opts.Logf("rdfserved: refine %s: σ at epoch %d: %v", p.key, snap.Epoch, err)
			return
		}
		cr.sigma = sigma.Value()
	}
	s.refineCache.Put(p.key, snap.Epoch, cr)
}

// sigmaRetryAfterSeconds is the poll hint returned with the
// empty-dataset 503.
const sigmaRetryAfterSeconds = 1

// handleSigma answers GET /sigma. Status codes:
//
//	200 — σ computed, from the live aggregates ("stats" present) or a
//	      snapshot ("epoch" present)
//	400 — unknown or malformed fn parameter
//	503 — the dataset is empty, so no measure is defined yet (every σ
//	      denominator is vacuous); the response carries a Retry-After
//	      header and retryAfterSeconds in the JSON body, telling
//	      clients to poll again after ingestion starts
//
// Responses are cached keyed by (fn, composite epoch): any effective
// mutation advances the epoch and so invalidates every entry for free.
// The X-Cache header reports hit/miss/bypass; nocache=1 bypasses the
// cache (the ablation probe).
//
// A miss takes one engine read cut (Engine.SigmaStats): the ratio and
// the stats in the body are of the same epoch by construction, so the
// body is the one any reader at that epoch computes and is cached under
// it unconditionally — a write landing mid-request cannot produce a
// body that mixes two epochs.
func (s *Server) handleSigma(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("fn")
	if name == "" {
		name = "cov"
	}
	fn, _, err := core.Builtin(name)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	nocache := r.URL.Query().Get("nocache") == "1"
	key := "fn=" + fn.Name()
	if s.sigmaCache != nil && !nocache {
		// Epoch() is an O(shards) consistent cut, so hits touch no
		// aggregate at all. The empty-dataset guard below can run after
		// this check — an empty dataset has no entry at its current epoch,
		// because any mutation that emptied it advanced the epoch past
		// every cached cut.
		if v, ok := s.sigmaCache.Get(key, s.d.Epoch()); ok {
			writeBody(w, "hit", v.([]byte))
			return
		}
	}
	// Closed forms read the live counts in O(|P|) and dependency measures
	// and compiled two-variable rules the live pair-count aggregates in
	// O(1) per demanded pair — no snapshot — unless the measure has no
	// live form or the pair tracker is disabled (live is false and the
	// read falls back to snapshot evaluation below).
	ratio, st, live := s.d.SigmaStats(fn)
	if st.Subjects == 0 {
		// Returning a zero ratio here would be indistinguishable from a
		// genuinely unstructured dataset; tell the client to retry once
		// data has arrived instead.
		w.Header().Set("Retry-After", strconv.Itoa(sigmaRetryAfterSeconds))
		writeJSON(w, http.StatusServiceUnavailable, map[string]interface{}{
			"error":             "dataset is empty; ingest triples before reading σ",
			"retryAfterSeconds": sigmaRetryAfterSeconds,
			"stats":             st,
		})
		return
	}
	resp := map[string]interface{}{"fn": fn.Name()}
	epoch := st.Epoch
	if live {
		resp["stats"] = st
	} else {
		snap := s.d.Snapshot()
		var err error
		ratio, err = fn.Eval(snap.View)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		epoch = snap.Epoch
		resp["epoch"] = epoch
	}
	resp["value"] = ratio.Value()
	resp["ratio"] = ratio.String()
	body := marshalBody(resp)
	verdict := "miss"
	if nocache {
		verdict = "bypass"
	} else if s.sigmaCache != nil {
		// Put's newer-epoch-wins rule closes the store-order race between
		// two misses at different epochs.
		s.sigmaCache.Put(key, epoch, body)
	}
	writeBody(w, verdict, body)
}

// sortSummary describes one non-empty implicit sort of a refinement.
type sortSummary struct {
	Sort     int     `json:"sort"`
	Sigs     int     `json:"signatures"`
	Subjects int     `json:"subjects"`
	Sigma    float64 `json:"sigma"`
}

// refineParams is one /refine request's parsed search specification,
// including its cache key (the normalized parameter tuple — two raw
// queries meaning the same search share one cache entry).
type refineParams struct {
	fn             rules.Func
	rule           *rules.Rule
	mode           string
	theta1, theta2 int64
	k              int
	opts           refine.SearchOptions
	key            string
}

func parseRefineParams(q url.Values) (*refineParams, error) {
	name := q.Get("fn")
	if name == "" {
		name = "cov"
	}
	fn, rule, err := core.Builtin(name)
	if err != nil {
		return nil, err
	}
	p := &refineParams{fn: fn, rule: rule, mode: q.Get("mode")}
	if p.mode == "" {
		p.mode = "lowestk"
	}
	switch q.Get("engine") {
	case "", "auto":
		p.opts.Engine = refine.EngineAuto
	case "exact":
		p.opts.Engine = refine.EngineExact
	case "heuristic":
		p.opts.Engine = refine.EngineHeuristic
	default:
		return nil, fmt.Errorf("unknown engine %q", q.Get("engine"))
	}
	// workers is validated for old clients and ignored: the search is
	// sequential, so it is not part of the key either.
	if v := q.Get("workers"); v != "" {
		if n, err := strconv.Atoi(v); err != nil || n < 0 {
			return nil, fmt.Errorf("bad workers %q", v)
		}
	}
	// restarts / maxiters bound the heuristic engine's cost. A
	// highest-θ search pays them once; a lowest-k sweep pays them per
	// probed k, so an interactive or load-generating client can cap its
	// worst case here instead of relying on disconnect-cancellation
	// after the fact.
	if v := q.Get("restarts"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > 64 {
			return nil, fmt.Errorf("bad restarts %q (want 1..64)", v)
		}
		p.opts.Heuristic.Restarts = n
	}
	if v := q.Get("maxiters"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > 10000 {
			return nil, fmt.Errorf("bad maxiters %q (want 1..10000)", v)
		}
		p.opts.Heuristic.MaxIters = n
	}
	switch p.mode {
	case "lowestk":
		p.theta1, p.theta2, err = parseTheta(q.Get("theta"))
		if err != nil {
			return nil, err
		}
	case "highesttheta":
		p.k = 2
		if v := q.Get("k"); v != "" {
			// The search allocates per sort, so k is bounded like the
			// other cost knobs above.
			p.k, err = strconv.Atoi(v)
			if err != nil || p.k < 1 || p.k > maxRefineK {
				return nil, fmt.Errorf("bad k %q (want 1..%d)", v, maxRefineK)
			}
		}
	default:
		return nil, fmt.Errorf("unknown mode %q (lowestk|highesttheta)", p.mode)
	}
	p.key = fmt.Sprintf("%s|%s|%d/%d|%d|%d|%d|%d",
		fn.Name(), p.mode, p.theta1, p.theta2, p.k, p.opts.Engine,
		p.opts.Heuristic.Restarts, p.opts.Heuristic.MaxIters)
	return p, nil
}

// maxRefineK bounds the highesttheta sort budget.
const maxRefineK = 1000

// run executes the search against a snapshot. Snapshots are immutable,
// so the outcome is a pure function of (snapshot epoch, params) — what
// makes the cache below sound without any post-compute epoch check.
func (p *refineParams) run(snap *incr.Snapshot) (*refine.Outcome, error) {
	if p.mode == "lowestk" {
		return refine.LowestK(snap.View, p.rule, p.fn, p.theta1, p.theta2, p.opts)
	}
	return refine.HighestTheta(snap.View, p.rule, p.fn, p.k, p.opts)
}

// cachedRefine is one cached /refine result: the rendered body for
// exact-epoch hits plus the response map stale serves copy and flag.
// sigma is σ at the result's snapshot, recorded for the auto-refine key
// only.
type cachedRefine struct {
	body  []byte
	resp  map[string]interface{}
	sigma float64
}

// handleRefine answers GET /refine. Results are cached keyed by
// (params, snapshot epoch). With stale-while-revalidate on, a request
// whose cache entry is for an older epoch gets that result immediately
// — flagged "stale": true with both epochs — while one background
// search per key recomputes at the current epoch; refine storms repeat
// cheap stale reads instead of stacking up expensive searches.
func (s *Server) handleRefine(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	p, err := parseRefineParams(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	snap := s.d.Snapshot()
	if snap.View.NumSignatures() == 0 {
		writeError(w, http.StatusConflict, "dataset is empty")
		return
	}
	nocache := q.Get("nocache") == "1"
	if s.refineCache != nil && !nocache {
		if v, ok := s.refineCache.Get(p.key, snap.Epoch); ok {
			writeBody(w, "hit", v.(*cachedRefine).body)
			return
		}
		if s.opts.RefineSWR {
			if v, _, ok := s.refineCache.GetStale(p.key); ok {
				cr := v.(*cachedRefine)
				if s.refineCache.BeginRefresh(p.key, snap.Epoch) &&
					!s.goBackground(func() { s.revalidateRefine(p, snap) }) {
					s.refineCache.EndRefresh(p.key)
				}
				// Shallow copy before flagging: the cached map may be
				// serving other requests concurrently.
				stale := make(map[string]interface{}, len(cr.resp)+2)
				for k, val := range cr.resp {
					stale[k] = val
				}
				stale["stale"] = true
				stale["liveEpoch"] = snap.Epoch
				writeBody(w, "stale", marshalBody(stale))
				return
			}
		}
	}
	// The inline search aborts when the client goes away (or the server
	// shuts down): an abandoned /refine must not keep burning cores and
	// holding its admission slot. Run on a copy so the SWR goroutine
	// above — which outlives this request by design — never inherits
	// the request's cancellation.
	inline := *p
	inline.opts.Cancel = r.Context().Done()
	out, err := inline.run(snap)
	if errors.Is(err, refine.ErrCanceled) {
		// The client has gone away: no one reads this, and a search that
		// decided nothing leaves nothing to cache.
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	resp := refineResponse(snap, p.fn.Name(), p.mode, out)
	body := marshalBody(resp)
	verdict := "miss"
	if nocache {
		verdict = "bypass"
	} else if s.refineCache != nil {
		s.putRefine(p, snap, resp, body)
	}
	writeBody(w, verdict, body)
}

// revalidateRefine is the stale-while-revalidate background search:
// recompute at the snapshot the stale read was answered against and
// refresh the cache. Single-flight per key via the cache's refresh
// latch (the caller holds it; released here).
func (s *Server) revalidateRefine(p *refineParams, snap *incr.Snapshot) {
	defer s.refineCache.EndRefresh(p.key)
	if err := s.searchAndCache(p, snap); err != nil {
		s.opts.Logf("rdfserved: background revalidate %s: %v", p.key, err)
	}
}

// parseTheta converts a decimal threshold ("0.9", default) to an exact
// rational on a 1/1000 grid.
func parseTheta(s string) (int64, int64, error) {
	if s == "" {
		return 900, 1000, nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || !(f >= 0 && f <= 1) { // the negated form also rejects NaN
		return 0, 0, fmt.Errorf("bad theta %q (want a decimal in [0,1])", s)
	}
	return int64(f*1000 + 0.5), 1000, nil
}

func refineResponse(snap *incr.Snapshot, fn, mode string, out *refine.Outcome) map[string]interface{} {
	ref := out.Refinement
	var sorts []sortSummary
	if ref != nil {
		views, idx := ref.SortViews(snap.View)
		for i, v := range views {
			sorts = append(sorts, sortSummary{
				Sort:     idx[i],
				Sigs:     v.NumSignatures(),
				Subjects: v.NumSubjects(),
				Sigma:    ref.Values[idx[i]].Value(),
			})
		}
	}
	resp := map[string]interface{}{
		"epoch":     snap.Epoch,
		"fn":        fn,
		"mode":      mode,
		"k":         out.K,
		"theta":     float64(out.Theta1) / float64(out.Theta2),
		"elapsedMs": out.Elapsed.Milliseconds(),
		"instances": out.Instances,
		"exact":     out.Exact,
		"sorts":     sorts,
	}
	if ref != nil {
		resp["minSigma"] = ref.MinSigma
		resp["assignment"] = ref.Assignment
	}
	return resp
}

// balanceSummary describes one per-shard load distribution. Imbalance
// is max/mean — 1 means perfectly even, 2 means the hottest shard
// carries twice its fair share (the signal that a subject-hash skew is
// eating the parallel-ingest speedup).
type balanceSummary struct {
	Min       int     `json:"min"`
	Max       int     `json:"max"`
	Mean      float64 `json:"mean"`
	Imbalance float64 `json:"imbalance"`
}

func summarizeBalance(vals []int) balanceSummary {
	if len(vals) == 0 {
		return balanceSummary{}
	}
	b := balanceSummary{Min: vals[0], Max: vals[0]}
	sum := 0
	for _, v := range vals {
		if v < b.Min {
			b.Min = v
		}
		if v > b.Max {
			b.Max = v
		}
		sum += v
	}
	b.Mean = float64(sum) / float64(len(vals))
	if b.Mean > 0 {
		b.Imbalance = float64(b.Max) / b.Mean
	}
	return b
}

// shardBalance condenses the per-shard breakdown into max/min/mean
// imbalance summaries over subjects and triples, so an operator reads
// skew at a glance instead of eyeballing the raw array.
func shardBalance(per []incr.Stats) map[string]balanceSummary {
	subjects := make([]int, len(per))
	triples := make([]int, len(per))
	for i, st := range per {
		subjects[i] = st.Subjects
		triples[i] = st.Triples
	}
	return map[string]balanceSummary{
		"subjects": summarizeBalance(subjects),
		"triples":  summarizeBalance(triples),
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := map[string]interface{}{}
	if sh, ok := s.d.(*incr.Sharded); ok {
		// One all-shard cut, so the per-shard breakdown always sums to
		// the merged totals even while writers are landing.
		merged, per := sh.StatsWithShards()
		resp["stats"] = merged
		resp["shards"] = per
		resp["shardBalance"] = shardBalance(per)
	} else {
		resp["stats"] = s.d.Stats()
	}
	resp["viewStorage"] = s.d.ViewStorage()
	if s.opts.WAL != nil {
		resp["wal"] = s.opts.WAL
	}
	if s.opts.Protect != nil {
		resp["admission"] = s.opts.Protect.Stats()
	}
	if s.opts.RateLimit != nil {
		resp["rateLimit"] = s.opts.RateLimit.Stats()
	}
	if s.sigmaCache != nil || s.refineCache != nil {
		caches := map[string]interface{}{}
		if s.sigmaCache != nil {
			caches["sigma"] = s.sigmaCache.Stats()
		}
		if s.refineCache != nil {
			caches["refine"] = s.refineCache.Stats()
		}
		resp["cache"] = caches
	}
	if s.opts.Backlog != nil {
		resp["backlog"] = map[string]interface{}{
			"pendingBytes": s.opts.Backlog.PendingBytes(),
			"maxBytes":     s.opts.MaxBacklogBytes,
		}
	}
	if s.auto != nil {
		if cr, epoch, ok := s.autoEntry(); ok {
			ref := map[string]interface{}{
				"epoch":    epoch,
				"sigma":    cr.sigma,
				"searches": s.autoSearches.Load(),
			}
			for _, k := range []string{"k", "theta", "minSigma", "elapsedMs"} {
				ref[k] = cr.resp[k]
			}
			resp["refinement"] = ref
		}
		if stale, err := s.autoStale(); err == nil {
			resp["refineStale"] = stale
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
