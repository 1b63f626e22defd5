package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"
)

// block is one subject's triples, as N-Triples lines without the newline.
// rdfgen writes a subject's triples contiguously, so a block is a run of
// lines sharing the first token.
type block struct {
	subject string
	lines   []string
}

// readBlocks splits an rdfgen dump into subject blocks, in file order.
func readBlocks(path string) ([]block, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var blocks []block
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		subj, _, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("%s: malformed line %q", path, line)
		}
		if n := len(blocks); n == 0 || blocks[n-1].subject != subj {
			blocks = append(blocks, block{subject: subj})
		}
		b := &blocks[len(blocks)-1]
		b.lines = append(b.lines, line)
	}
	return blocks, sc.Err()
}

// shuffled returns a seeded permutation of blocks; the input is not
// modified.
func shuffled(blocks []block, rng *rand.Rand) []block {
	out := append([]block(nil), blocks...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// holdOut splits blocks into every stride-th one and the rest, both in
// input order. Which subjects a workload holds out decides the dataset
// the searches and kernels see, so it must not change with the seed;
// the seed decides the order they are written in.
func holdOut(blocks []block, stride int) (held, rest []block) {
	for i, b := range blocks {
		if i%stride == 0 {
			held = append(held, b)
		} else {
			rest = append(rest, b)
		}
	}
	return held, rest
}

func countLines(blocks []block) int {
	n := 0
	for _, b := range blocks {
		n += len(b.lines)
	}
	return n
}

// groupBlocks cuts blocks into consecutive groups of at least minLines
// lines each (the last may be shorter). Cutting at subject boundaries
// keeps every subject inside one request.
func groupBlocks(blocks []block, minLines int) [][]block {
	var groups [][]block
	start, n := 0, 0
	for i, b := range blocks {
		n += len(b.lines)
		if n >= minLines {
			groups = append(groups, blocks[start:i+1])
			start, n = i+1, 0
		}
	}
	if start < len(blocks) {
		groups = append(groups, blocks[start:])
	}
	return groups
}

// body is one POST /triples request body.
type body struct {
	data        []byte
	contentType string
	triples     int
}

// rawBody is the application/n-triples form the bulk phase posts.
func rawBody(group []block) body {
	var sb strings.Builder
	n := 0
	for _, b := range group {
		for _, l := range b.lines {
			sb.WriteString(l)
			sb.WriteByte('\n')
			n++
		}
	}
	return body{data: []byte(sb.String()), contentType: "application/n-triples", triples: n}
}

// jsonBody is the {"add":[…]} / {"remove":[…]} form; field is "add" or
// "remove".
func jsonBody(field string, group []block) body {
	var lines []string
	for _, b := range group {
		lines = append(lines, b.lines...)
	}
	data, err := json.Marshal(map[string][]string{field: lines})
	if err != nil {
		panic(err) // a map of strings always marshals
	}
	return body{data: data, contentType: "application/json", triples: len(lines)}
}

// churnLag is how many writes separate a group's add from its removal in
// a churn stream. The open loop's two connections take a shared stream
// in order, so at most one write overtakes another; a lag of four keeps
// an add and its removal from racing, and the final-state oracle would
// show it if they ever did.
const churnLag = 4

// churnOp maps the w-th write of a churn stream to its action: the first
// churnLag writes add groups 0..churnLag-1, after which removals of the
// oldest present group alternate with adds of the next new one. At any
// time at most churnLag+1 held-out groups are present, so the dataset
// stays at its base size and signature set.
func churnOp(w int) (remove bool, group int) {
	if w < churnLag {
		return false, w
	}
	k := w - churnLag
	if k%2 == 0 {
		return true, k / 2
	}
	return false, churnLag + k/2
}

// churnBody renders the w-th write of a stream over groups (indices wrap).
func churnBody(groups [][]block, w int) (b body, remove bool, group int) {
	remove, group = churnOp(w)
	group %= len(groups)
	if remove {
		return jsonBody("remove", groups[group]), true, group
	}
	return jsonBody("add", groups[group]), false, group
}

// popularPredicates returns the n predicates that occur on most subjects,
// most frequent first (ties by name), skipping rdf:type.
func popularPredicates(blocks []block, n int) []string {
	const rdfType = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
	count := map[string]int{}
	for _, b := range blocks {
		for _, l := range b.lines {
			f := strings.SplitN(l, " ", 3)
			if len(f) == 3 && f[1] != rdfType {
				count[f[1]]++
			}
		}
	}
	preds := make([]string, 0, len(count))
	for p := range count {
		preds = append(preds, p)
	}
	sort.Slice(preds, func(i, j int) bool {
		if count[preds[i]] != count[preds[j]] {
			return count[preds[i]] > count[preds[j]]
		}
		return preds[i] < preds[j]
	})
	if len(preds) > n {
		preds = preds[:n]
	}
	for i, p := range preds {
		preds[i] = strings.Trim(p, "<>")
	}
	return preds
}

// sigmaKeys builds the σ key set of sigma-wide: cov, sim, then dep,
// symdep and depdisj over random pairs of the given predicates, n keys
// in all, most popular first.
func sigmaKeys(preds []string, n int, rng *rand.Rand) []string {
	keys := []string{"cov", "sim"}
	kinds := []string{"dep", "symdep", "depdisj"}
	seen := map[string]bool{}
	for len(keys) < n {
		i, j := rng.Intn(len(preds)), rng.Intn(len(preds))
		if i == j {
			continue
		}
		pair := preds[i] + "," + preds[j]
		if seen[pair] {
			continue
		}
		seen[pair] = true
		for _, k := range kinds {
			if len(keys) < n {
				keys = append(keys, k+"["+pair+"]")
			}
		}
	}
	return keys
}

// opKind is the class of one request.
type opKind int

const (
	opSigma opKind = iota
	opWrite
	opRefine
)

func (k opKind) String() string { return [...]string{"sigma", "write", "refine"}[k] }

// schedOp is one request of an open-loop schedule: when it is due,
// measured from the start of the loop, and what it asks. arg is the σ
// key index for opSigma and the churn write index for opWrite.
type schedOp struct {
	due  time.Duration
	kind opKind
	arg  int
}

// openSchedule lays out rate requests per second for the given duration:
// a fixed arrival grid, with each slot's kind drawn from the seeded
// shares (refine share is the remainder after σ and writes).
func openSchedule(rate int, d time.Duration, sigmaShare, writeShare float64, sigmaKeys int, rng *rand.Rand) []schedOp {
	n := int(d.Seconds() * float64(rate))
	ops := make([]schedOp, n)
	writes := 0
	for i := range ops {
		ops[i].due = time.Duration(i) * time.Second / time.Duration(rate)
		switch x := rng.Float64(); {
		case x < sigmaShare:
			ops[i].kind, ops[i].arg = opSigma, rng.Intn(sigmaKeys)
		case x < sigmaShare+writeShare:
			ops[i].kind, ops[i].arg = opWrite, writes
			writes++
		default:
			ops[i].kind = opRefine
		}
	}
	return ops
}
