// Command bench is the repository's benchmark. It drives the shipped
// binaries (rdfgen, rdfstruct, rdfrefine, rdfserved, rdfcoord) through
// their command-line and HTTP surface for the end-to-end numbers, and
// with --trace 1 also replays the same seeded inputs in-process, with a
// span around each call into a layer, for the per-layer numbers.
//
// Run it through bench/run.sh, which BENCHMARK.json names:
//
//	bench/run.sh --workload sigma-wide --seed 1 --seconds 20 --trace 0
//	bench/run.sh --workload all --seed 1 -smoke
//	bench/run.sh -list
//	bench/run.sh -compare A.jsonl B.jsonl
//
// The last line of standard output is the result object the benchmark
// contract asks for; the readable report goes to standard error and to
// bench/out/report-<workload>.json. README.md explains the workloads and
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

// measure is one end-to-end value with the number of samples behind it.
type measure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// report is everything one run found out; it is written to
// bench/out/report-<workload>.json and, with -log, appended to a log
// that -compare reads.
type report struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  int      `json:"seconds"`
	Trace    bool     `json:"trace"`
	Correct  bool     `json:"correct"`
	Valid    bool     `json:"valid"`
	Invalid  []string `json:"invalid,omitempty"`

	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`

	// Flags records, per process, every flag that differs from the
	// binary's default.
	Flags    map[string]string  `json:"flags"`
	EndToEnd map[string]measure `json:"end_to_end"`
	// Layers holds the per-layer figures this run measured; a name that
	// is missing here did no work on this workload (or, for span-derived
	// figures, the run was not traced).
	Layers map[string]float64 `json:"layers"`
	Notes  []string           `json:"notes,omitempty"`
}

// runCtx is what a workload gets to work with.
type runCtx struct {
	env     *env
	seed    int64
	seconds int
	rep     *report
}

// rng returns the random stream of the given name for this run's seed.
// Separate streams keep, say, the key choice from shifting when the
// shuffle consumes more numbers.
func (rc *runCtx) rng(stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewSource(rc.seed ^ int64(h.Sum64())))
}

func unitOf(specs []metricSpec, name string) string {
	for _, m := range specs {
		if m.Name == name {
			return m.Unit
		}
	}
	panic("bench: metric " + name + " is not declared in spec.go")
}

func (rc *runCtx) e2e(name string, v float64, n int) {
	rc.rep.EndToEnd[name] = measure{Value: v, Unit: unitOf(endToEnd, name), N: n}
}

func (rc *runCtx) layer(name string, v float64) {
	unitOf(perLayer, name)
	rc.rep.Layers[name] = v
}

// wrong records an oracle mismatch: the run's outputs are not correct.
func (rc *runCtx) wrong(format string, args ...any) {
	rc.rep.Correct = false
	rc.rep.Failed++
	rc.rep.Failures = append(rc.rep.Failures, fmt.Sprintf(format, args...))
}

// invalid flags a run whose numbers should not be compared (a late
// generator, a failover), without calling its outputs wrong.
func (rc *runCtx) invalid(format string, args ...any) {
	rc.rep.Valid = false
	rc.rep.Invalid = append(rc.rep.Invalid, fmt.Sprintf(format, args...))
}

func (rc *runCtx) note(format string, args ...any) {
	rc.rep.Notes = append(rc.rep.Notes, fmt.Sprintf(format, args...))
}

// count folds a connection tally's attempts and failures into the report.
func (rc *runCtx) count(t *tally) {
	rc.rep.Attempted += t.attempted
	rc.rep.Failed += t.failed
	rc.rep.Failures = append(rc.rep.Failures, t.why...)
	if t.shed > 0 {
		rc.invalid("%d requests were shed (429)", t.shed)
	}
}

// runOne runs one workload end to end and returns its report.
func runOne(e *env, w *workload, seed int64, seconds int, trace bool, buildS float64) (*report, error) {
	rc := &runCtx{env: e, seed: seed, seconds: seconds, rep: &report{
		Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace,
		Correct: true, Valid: true,
		Flags: map[string]string{}, EndToEnd: map[string]measure{}, Layers: map[string]float64{},
	}}
	rc.layer("harness.build_s", buildS)
	if err := probeHardware(rc); err != nil {
		return nil, err
	}
	if err := w.run(rc); err != nil {
		return nil, err
	}
	if trace {
		tr := newTracer()
		if err := w.trace(rc, tr); err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
		path := filepath.Join(e.out, "trace-"+w.name+".json")
		if err := tr.write(path); err != nil {
			return nil, err
		}
		rc.note("spans written to %s; they are recorded around calls from bench/ only, so tracing overhead inside the program is not yet defined", path)
	}
	for _, m := range endToEnd {
		if v, ok := rc.rep.EndToEnd[m.Name]; !ok || v.Value <= 0 {
			return nil, fmt.Errorf("workload %s did not measure %s", w.name, m.Name)
		}
	}
	if rc.rep.Attempted == 0 {
		return nil, fmt.Errorf("workload %s attempted nothing", w.name)
	}
	if len(rc.rep.Failures) > 10 {
		rc.rep.Failures = rc.rep.Failures[:10]
	}
	return rc.rep, nil
}

// print writes the readable report to standard error.
func (r *report) print() {
	w := os.Stderr
	fmt.Fprintf(w, "\n== %s  seed %d  %d s  correct=%v valid=%v  attempted=%d failed=%d\n",
		r.Workload, r.Seed, r.Seconds, r.Correct, r.Valid, r.Attempted, r.Failed)
	for _, why := range r.Invalid {
		fmt.Fprintf(w, "   invalid: %s\n", why)
	}
	for _, why := range r.Failures {
		fmt.Fprintf(w, "   failure: %s\n", why)
	}
	for _, m := range endToEnd {
		v := r.EndToEnd[m.Name]
		fmt.Fprintf(w, "   %-32s %14.4f %-10s n=%d\n", m.Name, v.Value, v.Unit, v.N)
	}
	for _, m := range perLayer {
		if v, ok := r.Layers[m.Name]; ok {
			fmt.Fprintf(w, "   %-32s %14.6g %s\n", m.Name, v, m.Unit)
		}
	}
	procs := make([]string, 0, len(r.Flags))
	for p := range r.Flags {
		procs = append(procs, p)
	}
	sort.Strings(procs)
	for _, p := range procs {
		fmt.Fprintf(w, "   flags %s: %s\n", p, r.Flags[p])
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
}

// resultLine is the object the benchmark contract wants as the last
// line of standard output.
func (r *report) resultLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if r.Trace {
		for _, m := range perLayer {
			metrics[m.Name] = value{r.Layers[m.Name], m.Unit} // no work on this workload reads 0
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.Name] = value{r.EndToEnd[m.Name].Value, m.Unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	if err != nil {
		panic(err)
	}
	return string(line)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// appendLog adds the report as one line to a -log file.
func appendLog(path string, r *report) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 20, "length of the measured part, in seconds")
	trace := flag.Int("trace", 0, "1 adds the in-process traced replay and prints the per-layer metrics")
	smoke := flag.Bool("smoke", false, "shorthand for --seconds 2: every phase shrinks so all workloads finish within a minute")
	list := flag.Bool("list", false, "print workload and metric names and exit")
	compare := flag.Bool("compare", false, "compare two -log files given as arguments: medians, difference, bound and verdict per workload and end-to-end metric")
	logPath := flag.String("log", "", "append each run's report to this file, one JSON object per line (input of -compare)")
	flag.Parse()

	switch {
	case *list:
		printList(os.Stdout)
		return
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two log files")
			os.Exit(2)
		}
		if err := compareLogs(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if *smoke {
		*seconds = 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	run := workloads
	if *name != "all" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (see -list)\n", *name)
			os.Exit(2)
		}
		run = []*workload{w}
	}
	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	// A signal must not leave servers or data directories behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.close(false)
		os.Exit(1)
	}()

	ok := true
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "bench:", err)
		e.close(true)
		os.Exit(1)
	}
	build, err := e.build()
	if err != nil {
		fail(err)
	}
	for _, w := range run {
		rep, err := runOne(e, w, *seed, *seconds, *trace == 1, build.Seconds())
		if err != nil {
			fail(fmt.Errorf("%s: %w", w.name, err))
		}
		rep.print()
		if err := writeJSON(filepath.Join(e.out, "report-"+w.name+".json"), rep); err != nil {
			fail(err)
		}
		if *logPath != "" {
			if err := appendLog(*logPath, rep); err != nil {
				fail(err)
			}
		}
		fmt.Println(rep.resultLine())
		ok = ok && rep.Correct
	}
	e.close(!ok)
	if !ok {
		os.Exit(1)
	}
}
