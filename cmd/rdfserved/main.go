// Command rdfserved is a long-running structuredness service over a
// mutable RDF dataset. It ingests triple add/remove batches over HTTP,
// maintains the signature view and the closed-form σ counts
// incrementally (internal/incr), and serves σ reads and sort
// refinements against consistent copy-on-write snapshots while
// ingestion continues. With -shards N > 1 the dataset is partitioned
// into N subject-hash shards over one shared term dictionary, so
// concurrent ingest batches on different subjects proceed in parallel;
// merged σ reads and snapshots are exact (subject-disjoint shards make
// every aggregate additive).
//
// Usage:
//
//	rdfserved -addr :8077
//	rdfserved -addr :8077 -shards 8 -in persons.nt -auto-refine 'fn=cov&mode=lowestk&theta=0.9'
//	rdfserved -addr :8077 -shards 4 -data-dir /var/lib/rdfserved -fsync 10ms
//
// With -data-dir every applied batch is written to a per-shard
// write-ahead log and the engine state is checkpointed periodically;
// after a crash the process replays the directory and resumes exactly
// where acknowledged ingestion left off (see internal/wal).
//
// With -auto-refine '<query>' the server keeps the /refine cache entry
// for that query (same parameters and validation as GET /refine) fresh:
// after each write that moves σ by 0.01 or more, a background search
// recomputes it, GET /stats reports it under "refinement", and
// GET /refine with the same query is answered from the cache.
//
// Endpoints:
//
//	POST /triples   {"add": ["<s> <p> <o> ."], "remove": [...]}  (or a raw N-Triples body)
//	GET  /sigma?fn=cov|sim|dep[p1,p2]|symdep[p1,p2]
//	GET  /refine?fn=cov&mode=lowestk|highesttheta&theta=0.9&k=2&engine=auto
//	GET  /stats
//	GET  /metrics          (Prometheus text; disable with -metrics=false)
//	GET  /debug/pprof/*    (only with -pprof)
//
// On SIGINT/SIGTERM the server shuts down gracefully: every running
// background search (auto-refine and stale-while-revalidate) is
// cancelled, in-flight requests drain, and the listener closes.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/incr"
	"repro/internal/metrics"
	"repro/internal/protect"
	"repro/internal/rdf"
	"repro/internal/serve"
	"repro/internal/wal"
)

func main() {
	addr := flag.String("addr", ":8077", "listen address")
	in := flag.String("in", "", "preload an N-Triples (.nt) or Turtle (.ttl) file")
	shards := flag.Int("shards", runtime.GOMAXPROCS(0), "subject-hash ingest shards (1 = the single-dataset engine)")
	keepSubjects := flag.Bool("keep-subjects", false, "retain subject URIs per signature in snapshots")
	noPairCounts := flag.Bool("no-pair-counts", false, "disable the O(|P|²) live pair-count tracker; dep/symdep reads fall back to snapshot evaluation")
	ignore := flag.String("ignore", "", "comma-separated predicate URIs to exclude from the view (rdf:type always is)")
	autoRefine := flag.String("auto-refine", "", "a /refine query string (e.g. 'fn=cov&mode=lowestk&theta=0.9') whose cached result is recomputed in the background when σ drifts by 0.01")
	maxBodyMB := flag.Int64("max-body-mb", 64, "request body cap in MiB")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second, "graceful-shutdown drain budget")
	dataDir := flag.String("data-dir", "", "durability directory (write-ahead log + checkpoints); empty = in-memory only")
	fsync := flag.String("fsync", "batch", "WAL fsync policy: batch (per ingest), off, or a group-commit window like 10ms")
	checkpointInterval := flag.Duration("checkpoint-interval", time.Minute, "background checkpoint cadence (0 = only on shutdown)")
	enableMetrics := flag.Bool("metrics", true, "serve Prometheus text metrics on GET /metrics")
	enablePprof := flag.Bool("pprof", false, "serve net/http/pprof profiles under GET /debug/pprof/")
	slowRequest := flag.Duration("slow-request", time.Second, "log requests slower than this with their trace ID (0 = never)")
	// Overload protection. Gate defaults scale with the core count —
	// reads are cheap (many slots), writes contend on shard locks and
	// the WAL (fewer), refinements burn whole cores (fewest).
	ncpu := runtime.GOMAXPROCS(0)
	readLimit := flag.Int("read-limit", 8*ncpu, "max concurrent /sigma requests (0 = unlimited)")
	readQueue := flag.Int("read-queue", 16*ncpu, "max queued /sigma requests before shedding 429")
	writeLimit := flag.Int("write-limit", 2*ncpu, "max concurrent /triples requests (0 = unlimited)")
	writeQueue := flag.Int("write-queue", 4*ncpu, "max queued /triples requests before shedding 429")
	refineLimit := flag.Int("refine-limit", max(1, ncpu/2), "max concurrent /refine requests (0 = unlimited)")
	refineQueue := flag.Int("refine-queue", ncpu, "max queued /refine requests before shedding 429")
	admitWait := flag.Duration("admit-wait", 2*time.Second, "max time a queued request waits for an admission slot (0 = the request's own deadline)")
	writeDeadline := flag.Duration("write-deadline", 30*time.Second, "end-to-end budget for one POST /triples (body read, apply, fsync barrier; 0 = unbounded)")
	maxBacklogMB := flag.Int64("max-backlog-mb", 64, "WAL group-commit backlog bound in MiB; ingest blocks (then sheds) past it (0 = unbounded)")
	clusterWorker := flag.Bool("cluster-worker", false, "expose the internal worker endpoints (/internal/health, /internal/agg, /internal/view) for an rdfcoord coordinator")
	rateLimit := flag.Float64("rate-limit", 0, "per-client steady-state request rate in req/s, keyed by X-Client-Id else remote IP (0 = disabled)")
	rateLimitBurst := flag.Float64("rate-limit-burst", 0, "per-client burst allowance (0 = max(rate-limit, 1))")
	rateLimitClients := flag.Int("rate-limit-clients", 4096, "max tracked rate-limit clients; least-recently-seen evicted past this")
	sigmaCache := flag.Int("sigma-cache", 256, "epoch-keyed /sigma response cache entries (negative = disabled)")
	refineCache := flag.Int("refine-cache", 64, "epoch-keyed /refine response cache entries (negative = disabled)")
	refineSWR := flag.Bool("refine-swr", true, "serve stale cached /refine results (flagged, with epochs) while revalidating in the background")
	// Connection hygiene: without these a slowloris client parks
	// connections forever.
	readHeaderTimeout := flag.Duration("read-header-timeout", 10*time.Second, "http.Server ReadHeaderTimeout")
	readTimeout := flag.Duration("read-timeout", 2*time.Minute, "http.Server ReadTimeout (covers slow request bodies)")
	writeTimeout := flag.Duration("write-timeout", 2*time.Minute, "http.Server WriteTimeout")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout for keep-alive connections")
	flag.Parse()

	// The auto-refine query is validated before anything is loaded: a
	// query GET /refine would reject with 400 stops the process here.
	var autoParams *serve.RefineParams
	if *autoRefine != "" {
		q, err := url.ParseQuery(*autoRefine)
		if err == nil {
			autoParams, err = serve.ParseRefineQuery(q)
		}
		if err == nil && *refineCache < 0 {
			err = fmt.Errorf("needs the /refine cache (-refine-cache >= 0)")
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "rdfserved: -auto-refine: %v\n", err)
			os.Exit(1)
		}
	}

	var opts incr.Options
	opts.KeepSubjects = *keepSubjects
	opts.DisablePairCounts = *noPairCounts
	if *ignore != "" {
		for _, p := range strings.Split(*ignore, ",") {
			if p = strings.TrimSpace(p); p != "" {
				opts.IgnoreProperties = append(opts.IgnoreProperties, p)
			}
		}
	}
	// -shards 1 uses the plain Dataset — the exact single-writer code
	// path, not a one-shard wrapper.
	var d incr.Engine
	if *shards > 1 {
		d = incr.NewSharded(*shards, opts)
	} else {
		d = incr.NewDataset(opts)
	}

	// The metrics registry is shared by every layer: engine ingest
	// counters, WAL fsync timings, and the serve-side HTTP histograms
	// all land in one /metrics scrape.
	var reg *metrics.Registry
	if *enableMetrics {
		reg = metrics.NewRegistry()
		d.RegisterMetrics(reg)
	}

	// Durability attaches before the preload so preloaded triples are
	// logged too; recovery replays the data directory into the fresh
	// engine first (re-preloading recovered triples is a no-op).
	var store *wal.Store
	var walInfo *serve.WALInfo
	if *dataDir != "" {
		mode, interval, err := wal.ParseSyncMode(*fsync)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rdfserved:", err)
			os.Exit(1)
		}
		var shardList []*incr.Dataset
		switch e := d.(type) {
		case *incr.Sharded:
			shardList = e.Shards()
		case *incr.Dataset:
			shardList = []*incr.Dataset{e}
		}
		st, rec, err := wal.Open(*dataDir, d.Dict(), shardList, wal.Options{
			Mode: mode, SyncInterval: interval,
			CheckpointInterval: *checkpointInterval,
			Logf:               log.Printf,
			Metrics:            reg,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "rdfserved:", err)
			os.Exit(1)
		}
		store = st
		log.Printf("rdfserved: recovered %s in %s: %d dict terms, %d shard checkpoints, %d WAL records applied (%d skipped), %d bytes scanned, %d torn bytes truncated",
			*dataDir, rec.Duration.Round(time.Millisecond), rec.Terms, rec.Checkpoints, rec.Records, rec.Skipped, rec.Bytes, rec.TornBytes)
		walInfo = &serve.WALInfo{
			Mode:        mode.String(),
			Synchronous: mode != wal.SyncOff,
			Recovery: serve.WALRecovery{
				Terms: rec.Terms, Checkpoints: rec.Checkpoints,
				Records: rec.Records, Skipped: rec.Skipped,
				Bytes: rec.Bytes, TornBytes: rec.TornBytes,
				DurationMs: rec.Duration.Milliseconds(),
			},
		}
	}

	if *in != "" {
		if err := preload(d, *in); err != nil {
			fmt.Fprintln(os.Stderr, "rdfserved:", err)
			os.Exit(1)
		}
		st := d.Stats()
		log.Printf("preloaded %s: %d triples, %d subjects, %d signatures",
			*in, st.Triples, st.Subjects, st.Signatures)
	}

	srvOpts := serve.Options{
		MaxBodyBytes:    *maxBodyMB << 20,
		Metrics:         reg,
		EnablePprof:     *enablePprof,
		SlowRequest:     *slowRequest,
		WAL:             walInfo,
		WriteDeadline:   *writeDeadline,
		SigmaCacheSize:  *sigmaCache,
		RefineCacheSize: *refineCache,
		RefineSWR:       *refineSWR,
		AutoRefine:      autoParams,
		ClusterWorker:   *clusterWorker,
		RateLimit: protect.NewRateLimiter(protect.RateLimitConfig{
			RPS: *rateLimit, Burst: *rateLimitBurst, MaxClients: *rateLimitClients,
		}),
		Protect: protect.NewLimiter(protect.Limits{
			Read:   protect.GateConfig{Limit: *readLimit, Queue: *readQueue, MaxWait: *admitWait},
			Write:  protect.GateConfig{Limit: *writeLimit, Queue: *writeQueue, MaxWait: *admitWait},
			Refine: protect.GateConfig{Limit: *refineLimit, Queue: *refineQueue, MaxWait: *admitWait},
		}),
	}
	if store != nil {
		srvOpts.Durable = store
		srvOpts.Backlog = store
		srvOpts.MaxBacklogBytes = *maxBacklogMB << 20
	}
	handler := serve.New(d, srvOpts)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	if sh, ok := d.(*incr.Sharded); ok {
		log.Printf("rdfserved listening on %s (%d shards)", *addr, sh.NumShards())
	} else {
		log.Printf("rdfserved listening on %s (unsharded)", *addr)
	}

	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "rdfserved:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop() // restore default signal behavior: a second signal kills immediately
	log.Printf("rdfserved: signal received, draining (budget %s)", *shutdownTimeout)
	// Background searches would otherwise run on through the drain and
	// the final checkpoint.
	handler.Close()
	shCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		fmt.Fprintln(os.Stderr, "rdfserved: shutdown:", err)
		os.Exit(1)
	}
	if store != nil {
		// Flush and checkpoint so a clean restart replays zero WAL
		// records.
		if err := store.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "rdfserved: wal close:", err)
			os.Exit(1)
		}
		log.Printf("rdfserved: wal flushed and checkpointed")
	}
	log.Printf("rdfserved: bye")
}

// preload streams a dump into the engine in bounded batches (through
// the per-shard worker pool when sharded), so large files ingest
// without materializing an intermediate triple list.
func preload(d incr.Engine, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch filepath.Ext(path) {
	case ".ttl", ".turtle":
		_, err = d.AddStreamIDs(0, func(emit func(rdf.IDTriple) error) error {
			return rdf.ReadTurtleIDs(f, d.Dict(), emit)
		})
	default:
		_, err = d.AddNTriples(f, 0)
	}
	return err
}
