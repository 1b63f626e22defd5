package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Latency limits: an operation slower than its limit counts as failed,
// like one that is refused or answers wrongly.
const (
	fastLimit   = time.Second     // /sigma and /triples
	refineLimit = 5 * time.Second // /refine
)

// conn is one keep-alive HTTP connection, driven by one goroutine.
type conn struct{ c *http.Client }

func newConn() *conn {
	return &conn{c: &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *conn) close() { c.c.CloseIdleConnections() }

// reply is one HTTP exchange as the client saw it.
type reply struct {
	status int
	body   []byte
	cache  string // X-Cache verdict, "" when absent
	lat    time.Duration
}

func (c *conn) do(req *http.Request) (reply, error) {
	start := time.Now()
	resp, err := c.c.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, body: data, cache: resp.Header.Get("X-Cache"), lat: time.Since(start)}, nil
}

func (c *conn) get(rawURL string) (reply, error) {
	req, err := http.NewRequest(http.MethodGet, rawURL, nil)
	if err != nil {
		return reply{}, err
	}
	return c.do(req)
}

func (c *conn) post(base string, b body) (reply, error) {
	req, err := http.NewRequest(http.MethodPost, base+"/triples", bytes.NewReader(b.data))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", b.contentType)
	return c.do(req)
}

func sigmaURL(base, fn string) string { return base + "/sigma?fn=" + url.QueryEscape(fn) }

// refineQuery is the one refinement every server workload asks for.
// nocache=1 makes each request run the search instead of replaying the
// server's cached or stale answer. workers=1 selects the sequential
// engine: its outcome is the same as the parallel one's by design, and
// its time does not depend on how many cores the box can spare while
// the search runs (see README.md, "Sizing for a noisy 2-core box").
const refineQuery = "/refine?fn=cov&mode=highesttheta&k=2&nocache=1&workers=1"

// ratioRE matches the exact rational at the head of a σ ratio string,
// "170788/316280 = 0.5400".
var ratioRE = regexp.MustCompile(`^(\d+)/(\d+) = `)

// sigmaFraction extracts "Fav/Tot" from a /sigma response body and
// rejects one that is not a rational in [0,1].
func sigmaFraction(data []byte) (string, error) {
	var resp struct {
		Ratio string `json:"ratio"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return "", fmt.Errorf("sigma body: %v", err)
	}
	return checkFraction(resp.Ratio)
}

func checkFraction(ratio string) (string, error) {
	m := ratioRE.FindStringSubmatch(ratio)
	if m == nil {
		return "", fmt.Errorf("ratio %q is not Fav/Tot = value", ratio)
	}
	// Lengths then strings compare decimal magnitudes without overflow.
	if len(m[1]) > len(m[2]) || (len(m[1]) == len(m[2]) && m[1] > m[2]) {
		return "", fmt.Errorf("ratio %q exceeds 1", ratio)
	}
	return m[1] + "/" + m[2], nil
}

// tally collects what one connection saw. Each goroutine owns one and
// they are merged after the loop, so recording takes no lock.
type tally struct {
	lat       [3][]float64 // milliseconds, by opKind
	attempted int
	failed    int
	why       []string // first few failure reasons
	cache     map[string]int
	shed      int
	triples   int // triples acknowledged by writes
	bodyBytes int64
}

func newTally() *tally { return &tally{cache: map[string]int{}} }

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.why) < 5 {
		t.why = append(t.why, fmt.Sprintf(format, args...))
	}
}

// record files one finished request. lat is the latency that counts
// (from the due time in an open loop); a request fails when the
// transport failed, the status is not 2xx, or it overran its limit.
func (t *tally) record(kind opKind, r reply, err error, lat time.Duration) bool {
	t.attempted++
	limit := fastLimit
	if kind == opRefine {
		limit = refineLimit
	}
	switch {
	case err != nil:
		t.fail("%s: %v", kind, err)
	case r.status == http.StatusTooManyRequests:
		t.shed++
		t.fail("%s: shed (429)", kind)
	case r.status/100 != 2:
		t.fail("%s: status %d: %s", kind, r.status, firstLine(r.body))
	case lat > limit:
		t.fail("%s: %s exceeds the %s limit", kind, lat, limit)
	default:
		t.lat[kind] = append(t.lat[kind], float64(lat)/float64(time.Millisecond))
		if r.cache != "" {
			t.cache[r.cache]++
		}
		return true
	}
	return false
}

func firstLine(b []byte) string {
	s, _, _ := strings.Cut(strings.TrimSpace(string(b)), "\n")
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

func (t *tally) merge(o *tally) {
	for k := range t.lat {
		t.lat[k] = append(t.lat[k], o.lat[k]...)
	}
	t.attempted += o.attempted
	t.failed += o.failed
	t.why = append(t.why, o.why...)
	for k, v := range o.cache {
		t.cache[k] += v
	}
	t.shed += o.shed
	t.triples += o.triples
	t.bodyBytes += o.bodyBytes
}

// doSigma reads one σ and checks the answer is a well-formed rational.
func (t *tally) doSigma(c *conn, base, fn string) {
	r, err := c.get(sigmaURL(base, fn))
	if t.record(opSigma, r, err, r.lat) {
		if _, err := sigmaFraction(r.body); err != nil {
			t.fail("sigma %s: %v", fn, err)
		}
	}
}

// doWrite posts one batch and checks the server acknowledged it.
func (t *tally) doWrite(c *conn, base string, b body) bool {
	r, err := c.post(base, b)
	return t.fileWrite(r, err, r.lat, b)
}

func (t *tally) fileWrite(r reply, err error, lat time.Duration, b body) bool {
	if !t.record(opWrite, r, err, lat) {
		return false
	}
	t.triples += b.triples
	t.bodyBytes += int64(len(b.data))
	return true
}

// refineAnswer is the part of a /refine response the oracle compares.
type refineAnswer struct {
	Theta     float64 `json:"theta"`
	K         int     `json:"k"`
	Exact     bool    `json:"exact"`
	Instances int     `json:"instances"`
	Sorts     []struct {
		Subjects   int `json:"subjects"`
		Signatures int `json:"signatures"`
	} `json:"sorts"`
}

// doRefine runs one refinement and checks it produced sorts.
func (t *tally) doRefine(c *conn, base string) (refineAnswer, bool) {
	r, err := c.get(base + refineQuery)
	return t.fileRefine(r, err, r.lat)
}

func (t *tally) fileRefine(r reply, err error, lat time.Duration) (refineAnswer, bool) {
	var a refineAnswer
	if !t.record(opRefine, r, err, lat) {
		return a, false
	}
	if err := json.Unmarshal(r.body, &a); err != nil || len(a.Sorts) == 0 {
		t.fail("refine: no sorts in answer (%v)", err)
		return a, false
	}
	return a, true
}

// scrape is a parsed Prometheus text exposition: sample name with its
// label set, verbatim, to value.
type scrape map[string]float64

// fetchMetrics reads GET /metrics; a server without the endpoint gives
// an empty scrape.
func fetchMetrics(base string) scrape {
	s := scrape{}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return s
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			s[line[:i]] += v
		}
	}
	return s
}

// series splits a sample key into its name and label set, and reports
// whether the label set contains every given fragment (e.g.
// `class="read"`).
func series(key string, labels []string) (name, labelSet string, match bool) {
	name, labelSet, _ = strings.Cut(key, "{")
	for _, l := range labels {
		if !strings.Contains(labelSet, l) {
			return name, labelSet, false
		}
	}
	return name, labelSet, true
}

// sum adds every sample of the named series whose label set contains all
// the given fragments. ok is false when the series
// is absent, which callers report as "not measured", not as zero.
func (s scrape) sum(name string, labels ...string) (total float64, ok bool) {
	for k, v := range s {
		if base, _, match := series(k, labels); match && base == name {
			total += v
			ok = true
		}
	}
	return total, ok
}

// histQuantile estimates quantile q of a Prometheus histogram (summed
// over every label set that contains the fragments) as the upper bound
// of the bucket the quantile falls in.
func (s scrape) histQuantile(name string, q float64, labels ...string) (float64, bool) {
	buckets := map[float64]float64{}
	for k, v := range s {
		base, rest, match := series(k, labels)
		_, le, found := strings.Cut(rest, `le="`)
		if !match || !found || base != name+"_bucket" {
			continue
		}
		le, _, _ = strings.Cut(le, `"`)
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil { // "+Inf" parses; anything else is skipped
			continue
		}
		buckets[bound] += v
	}
	if len(buckets) == 0 {
		return 0, false
	}
	bounds := make([]float64, 0, len(buckets))
	for b := range buckets {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	total := buckets[bounds[len(bounds)-1]]
	if total == 0 {
		return 0, false
	}
	for _, b := range bounds {
		if buckets[b] >= q*total {
			if math.IsInf(b, 1) && len(bounds) > 1 {
				b = bounds[len(bounds)-2]
			}
			return b, true
		}
	}
	return 0, false
}

// delta is after − before for every sample of after.
func (s scrape) delta(before scrape) scrape {
	d := scrape{}
	for k, v := range s {
		d[k] = v - before[k]
	}
	return d
}
