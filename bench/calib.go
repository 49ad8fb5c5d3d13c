package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The reference box is a shared VM whose speed drifts by 10-40 % over
// minutes, differently for arithmetic, for loads that miss the core's
// caches and for first touches of fresh pages. A wall time alone says as
// much about the minute it was taken in as about the simulator. Every
// round therefore brackets its work with passes of one fixed kernel that
// times those three things, and the round's times are divided by how
// much slower than the reference the kernel ran meanwhile (hostFactor).
// The kernel uses nothing of the simulator, so it is the same program
// on every commit and a change to the simulator cannot move it.

const (
	calibALUSteps = 200_000   // dependent xorshift steps
	calibTable    = 512 << 10 // 4-byte words: 2 MiB, one core's L2 on the reference box
	calibLoads    = 50_000    // dependent loads at scattered offsets of the table
	calibFresh    = 2 << 20   // bytes mapped, touched page by page and unmapped
)

// calibPass is one pass of the kernel: seconds spent in the arithmetic,
// load and fresh-page parts.
type calibPass [3]float64

// calibRef is a pass on the reference box on a quiet minute. It only
// fixes the scale: with it a normalised time reads as seconds on that
// box.
var calibRef = calibPass{0.39e-3, 3.4e-3, 1.15e-3}

var (
	calibOnce sync.Once
	calibTab  []uint32
	calibErr  error         // why calibTab is nil
	calibSink atomic.Uint64 // keeps the kernel's results live
)

func mapAnon(n int) ([]byte, error) {
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

// calibrate runs one pass. The table lives outside the Go heap, where it
// would raise the collector's heap goal and so change how often the
// workload itself is collected.
func calibrate() (calibPass, error) {
	calibOnce.Do(func() {
		mem, err := mapAnon(4 * calibTable)
		if err != nil {
			calibErr = err
			return
		}
		calibTab = unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), calibTable)
		for i := range calibTab {
			calibTab[i] = uint32(i) * 2654435761
		}
	})
	if calibTab == nil {
		return calibPass{}, fmt.Errorf("calibration table: %w", calibErr)
	}

	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < calibALUSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	t1 := time.Now()
	j := uint32(1)
	for i := uint32(0); i < calibLoads; i++ {
		j = calibTab[j&(calibTable-1)]*1664525 + 1013904223 + i
	}
	t2 := time.Now()
	fresh, err := mapAnon(calibFresh)
	if err != nil {
		return calibPass{}, fmt.Errorf("calibration pass: %w", err)
	}
	for i := 0; i < len(fresh); i += 4096 {
		fresh[i] = 1
	}
	err = syscall.Munmap(fresh)
	t3 := time.Now()
	calibSink.Add(x + uint64(j))
	if err != nil {
		return calibPass{}, fmt.Errorf("calibration pass: %w", err)
	}
	return calibPass{t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds()}, nil
}

// hostFactor is how much slower than the reference the host ran while
// the passes were taken: each part's median over its reference, the
// three weighted equally. Equal weights tracked all six workloads; the
// result is not sensitive to them (README, "Noise and the baseline").
func hostFactor(passes []calibPass) float64 {
	if len(passes) == 0 {
		return 1 // every pass failed; the round is already marked failed
	}
	f := 0.0
	part := make([]float64, len(passes))
	for k := range calibRef {
		for i, p := range passes {
			part[i] = p[k]
		}
		f += median(part) / calibRef[k] / float64(len(calibRef))
	}
	return f
}
