package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readLog loads a -log file: one report per line.
func readLog(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// verdict judges side B against side A for one metric on one workload:
// "regressed" when B's median is worse than A's by more than the bound,
// "unresolved" when either side's own spread (quartile distance over
// median) is wider than the bound, so the runs cannot tell, else "ok".
func verdict(m metricSpec, a, b []float64) (medA, medB, diff, spread float64, v string) {
	medA, medB = median(a), median(b)
	diff = (medB - medA) / medA
	worse := diff
	if m.Better == "higher" {
		worse = -diff
	}
	for _, xs := range [][]float64{a, b} {
		if len(xs) >= 2 {
			q1, q3 := quartiles(xs)
			spread = max(spread, (q3-q1)/median(xs))
		}
	}
	switch {
	case spread > m.Bound:
		v = "unresolved"
	case worse > m.Bound:
		v = "regressed"
	default:
		v = "ok"
	}
	return
}

// compareLogs prints, per workload and end-to-end metric, both medians,
// the relative difference, the wider of the two spreads, the bound and
// the verdict. It is the tool for the two-sets repeatability check and
// for parent/change pairs.
func compareLogs(w io.Writer, pathA, pathB string) error {
	a, err := readLog(pathA)
	if err != nil {
		return err
	}
	b, err := readLog(pathB)
	if err != nil {
		return err
	}
	values := func(rs []report, workload, metric string) []float64 {
		var xs []float64
		for _, r := range rs {
			if v, ok := r.EndToEnd[metric]; ok && r.Workload == workload && !r.Trace {
				xs = append(xs, v.Value)
			}
		}
		return xs
	}
	fmt.Fprintf(w, "%-15s %-15s %4s %12s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "runs", "median A", "median B", "diff", "spread", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			xa, xb := values(a, wl.name, m.Name), values(b, wl.name, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			medA, medB, diff, spread, v := verdict(m, xa, xb)
			fmt.Fprintf(w, "%-15s %-15s %2d/%-2d %12.4f %12.4f %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				wl.name, m.Name, len(xa), len(xb), medA, medB, 100*diff, 100*spread, 100*m.Bound, v)
		}
	}
	return nil
}
