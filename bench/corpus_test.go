package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// testBlocks makes n subjects with a varying number of properties each.
func testBlocks(n int) []block {
	blocks := make([]block, n)
	for i := range blocks {
		s := fmt.Sprintf("<http://t/s%d>", i)
		blocks[i].subject = s
		for p := 0; p <= i%7; p++ {
			blocks[i].lines = append(blocks[i].lines, fmt.Sprintf("%s <http://t/p%d> \"v\" .", s, p))
		}
	}
	return blocks
}

// traffic renders what a seed decides: batch bodies and an open-loop
// schedule.
func traffic(seed int64) (bodies [][]byte, sched []schedOp) {
	rc := &runCtx{seed: seed}
	blocks := shuffled(testBlocks(500), rc.rng("order"))
	for _, g := range groupBlocks(blocks, 100) {
		bodies = append(bodies, rawBody(g).data, jsonBody("remove", g).data)
	}
	groups := groupBlocks(blocks[:50], 20)
	for w := 0; w < 30; w++ {
		b, _, _ := churnBody(groups, w)
		bodies = append(bodies, b.data)
	}
	sched = openSchedule(70, 5*time.Second, 0.8, 0.18, 4, rc.rng("schedule"))
	return
}

func TestSameSeedSameInputs(t *testing.T) {
	b1, s1 := traffic(7)
	b2, s2 := traffic(7)
	if !reflect.DeepEqual(b1, b2) || !reflect.DeepEqual(s1, s2) {
		t.Fatal("the same seed produced different bodies or a different schedule")
	}
	b3, s3 := traffic(8)
	if reflect.DeepEqual(b1, b3) {
		t.Error("a different seed produced the same batch bodies")
	}
	if reflect.DeepEqual(s1, s3) {
		t.Error("a different seed produced the same schedule")
	}
}

// The seed orders the traffic; it must not change which subjects are
// held out, or two seeds would measure different datasets.
func TestHoldOutIgnoresTheSeed(t *testing.T) {
	blocks := testBlocks(100)
	held, rest := holdOut(blocks, 10)
	if len(held) != 10 || len(rest) != 90 {
		t.Fatalf("held %d, rest %d of 100", len(held), len(rest))
	}
	for i, b := range held {
		if b.subject != blocks[10*i].subject {
			t.Errorf("held[%d] = %s, want every tenth subject", i, b.subject)
		}
	}
}

func TestGroupBlocksKeepsSubjectsWhole(t *testing.T) {
	blocks := testBlocks(200)
	groups := groupBlocks(blocks, 50)
	seen := 0
	for i, g := range groups {
		if n := countLines(g); n < 50 && i < len(groups)-1 {
			t.Errorf("group %d has %d lines, want at least 50", i, n)
		}
		seen += len(g)
	}
	if seen != len(blocks) {
		t.Errorf("groups hold %d subjects, want %d", seen, len(blocks))
	}
	raw := rawBody(groups[0])
	if got := bytes.Count(raw.data, []byte("\n")); got != raw.triples {
		t.Errorf("raw body has %d lines but claims %d triples", got, raw.triples)
	}
}

// A churn stream must never remove a group that is absent or add one
// that is present, or the final state the oracle expects would depend on
// request order; and an add and its removal must be churnLag writes
// apart at least.
func TestChurnStream(t *testing.T) {
	present := map[int]int{} // group → write that added it
	for w := 0; w < 1000; w++ {
		remove, g := churnOp(w)
		at, in := present[g]
		switch {
		case remove && !in:
			t.Fatalf("write %d removes group %d, which is not present", w, g)
		case remove && w-at < churnLag:
			t.Fatalf("write %d removes group %d only %d writes after its add", w, g, w-at)
		case remove:
			delete(present, g)
		case in:
			t.Fatalf("write %d adds group %d twice", w, g)
		default:
			present[g] = w
		}
		if len(present) > churnLag+1 {
			t.Fatalf("after write %d, %d groups are present", w, len(present))
		}
	}
}

func TestOpenScheduleSharesAndGrid(t *testing.T) {
	sched := openSchedule(70, 20*time.Second, 0.8, 0.18, 4, rand.New(rand.NewSource(1)))
	if len(sched) != 1400 {
		t.Fatalf("schedule has %d requests, want 1400", len(sched))
	}
	var n [3]int
	writes := 0
	for i, op := range sched {
		if want := time.Duration(i) * time.Second / 70; op.due != want {
			t.Fatalf("request %d due at %s, want %s", i, op.due, want)
		}
		n[op.kind]++
		if op.kind == opWrite {
			if op.arg != writes {
				t.Fatalf("write %d numbered %d", writes, op.arg)
			}
			writes++
		}
	}
	for kind, want := range map[opKind]float64{opSigma: 0.8, opWrite: 0.18, opRefine: 0.02} {
		if got := float64(n[kind]) / float64(len(sched)); got < want-0.03 || got > want+0.03 {
			t.Errorf("%s share %.3f, want about %.2f", kind, got, want)
		}
	}
}

func TestSigmaKeysHeadIsFixed(t *testing.T) {
	preds := []string{"a", "b", "c", "d", "e", "f"}
	keys := sigmaKeys(preds, 50, rand.New(rand.NewSource(3)))
	if len(keys) != 50 || keys[0] != "cov" || keys[1] != "sim" {
		t.Fatalf("keys = %v", keys[:3])
	}
	seen := map[string]bool{}
	for _, k := range keys {
		if seen[k] {
			t.Errorf("key %s repeats", k)
		}
		seen[k] = true
	}
}

func TestCheckFraction(t *testing.T) {
	for ratio, want := range map[string]string{
		"170788/316280 = 0.5400":          "170788/316280",
		"5212726594/6751932792 = 0.7720":  "5212726594/6751932792",
		"37533/37533 = 1.0000":            "37533/37533",
		"0/0 = 1.0000":                    "0/0",
		"316280/170788 = 1.85":            "",
		"0.54":                            "",
		"12345678901234567890/9 = 1.0000": "",
	} {
		got, err := checkFraction(ratio)
		if got != want || (err == nil) != (want != "") {
			t.Errorf("checkFraction(%q) = %q, %v; want %q", ratio, got, err, want)
		}
	}
}
