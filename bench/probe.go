package main

import (
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// spinSink keeps the compiler from deleting the spin loop.
var spinSink atomic.Uint64

// probeHardware measures, at the start of every run, the ceilings the
// rates are quoted against and a fixed piece of CPU work that shows when
// the box itself was slow: a memory copy rate, the median of 200
// 4 KB write+fsync pairs in the filesystem the data directories live in,
// a fixed spin loop, and the same loop on two goroutines at once.
func probeHardware(rc *runCtx) error {
	// Memory copy: 16 passes over 32 MB, best pass (the ceiling, so the
	// least disturbed one).
	src, dst := make([]byte, 32<<20), make([]byte, 32<<20)
	for i := range src {
		src[i] = byte(i)
	}
	best := time.Duration(1 << 62)
	for pass := 0; pass < 16; pass++ {
		start := time.Now()
		copy(dst, src)
		if d := time.Since(start); d < best {
			best = d
		}
	}
	rc.layer("harness.memcpy_mb_per_s", float64(len(src)>>20)/best.Seconds())

	dir, err := rc.env.dir("probe")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	f, err := os.Create(filepath.Join(dir, "fsync"))
	if err != nil {
		return err
	}
	defer f.Close()
	page := make([]byte, 4096)
	var syncs []float64
	for i := 0; i < 200; i++ {
		start := time.Now()
		if _, err := f.Write(page); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		syncs = append(syncs, float64(time.Since(start))/float64(time.Millisecond))
	}
	rc.layer("harness.fsync_p50_ms", median(syncs))

	start := time.Now()
	spin(uint64(rc.seed))
	one := time.Since(start)
	rc.layer("harness.spin_ms", float64(one)/float64(time.Millisecond))

	// The same loop on two goroutines at once takes as long as on one
	// when the box really has two cores to give, and twice as long when
	// it has one; the sandbox moves between the two for a minute at a
	// time, and a run that needs both cores is only comparable with
	// runs that started in the same state.
	start = time.Now()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spin(uint64(rc.seed + int64(g)))
		}()
	}
	wg.Wait()
	rc.layer("harness.parallel_ratio", float64(time.Since(start))/float64(one))
	return nil
}

// spin is a fixed piece of arithmetic, about 0.1 s of one core.
func spin(seed uint64) {
	x := seed | 1
	for i := 0; i < 50_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink.Add(x)
}

// cpuMeter measures the share of one core this process used over an
// interval: a generator that needs a whole core competes with the
// servers on a small box.
type cpuMeter struct {
	wall time.Time
	cpu  time.Duration
}

func startCPUMeter() cpuMeter { return cpuMeter{time.Now(), selfCPU()} }

func (m cpuMeter) share() float64 {
	return float64(selfCPU()-m.cpu) / float64(time.Since(m.wall))
}
