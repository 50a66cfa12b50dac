package main

import (
	"container/heap"
	"fmt"
	"runtime"
	"sort"
	"time"
)

// The reference kernel measures the host's speed during a run, so that
// host times can be reported at one fixed speed.
//
// On a shared VM the speed of a vCPU drifts by a quarter over minutes
// (co-tenants on the same cores and caches), and CPU time drifts with
// it: the same timed call took 3.1 s to 3.9 s of CPU within one run.
// The kernel is a fixed discrete-event loop (a pointer min-heap, a map,
// small allocations, sorting) that uses none of the program's code. A
// run times blocks of kernel runs before, between and after the
// workload's iterations. Each iteration's CPU time is scaled by
// refNominalS / (the mean of the median kernel CPU times of the blocks
// on either side of it); set-up times, spread over the run, by
// refNominalS / (the run's median kernel CPU time).
//
// The kernel's work must never change: every normalised reading of
// every later run is measured against it. TestRefKernelChecksum pins
// it, and each run checks the checksum.
const (
	// refEvents is the kernel's event count.
	refEvents = 1 << 19
	// refChecksum is what refKernel returns.
	refChecksum = 0x6fe7bdb63a73ade7
	// refNominalS is the kernel CPU time that normalised host times are
	// reported at: about its median on the baseline host.
	refNominalS = 0.3
	// refLead is the share of the budget that the block before the
	// first iteration takes.
	refLead = 0.1
	// refShare is the length of a block after an iteration, as a share
	// of the iteration's elapsed time. The last block also takes what
	// is left of the budget.
	refShare = 0.2
)

type refEvent struct {
	at uint64
	id uint64
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || h[i].at == h[j].at && h[i].id < h[j].id
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// refKernel runs the fixed event loop and returns its checksum. It uses
// integers only, so the checksum is the same on every platform.
func refKernel() uint64 {
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	h := make(refHeap, 0, 4096)
	for i := uint64(0); i < 4096; i++ {
		heap.Push(&h, &refEvent{at: next() % 1000, id: i})
	}
	counts := map[uint64]uint64{}
	buf := make([]uint64, 0, 64)
	var sum uint64
	for n := 0; n < refEvents; n++ {
		e := heap.Pop(&h).(*refEvent)
		counts[e.id%8192] += e.at
		buf = append(buf, e.at^e.id)
		if len(buf) == cap(buf) {
			sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
			sum = sum*31 + buf[len(buf)/2]
			buf = buf[:0]
		}
		heap.Push(&h, &refEvent{at: e.at + next()%1000, id: next() % (1 << 20)})
	}
	keys := make([]uint64, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		sum = sum*31 + counts[k]
	}
	return sum
}

// calibration holds a run's kernel timings in blocks. Iteration i of a
// run sits between block i and block i+1.
type calibration struct {
	// blocks holds each block's kernel CPU times in seconds.
	blocks [][]float64
	// wallSum is the elapsed time of every block.
	wallSum float64
}

// block runs the kernel at least once, and until the block has taken
// minWall seconds.
func (c *calibration) block(minWall float64) error {
	var cpus []float64
	t0 := time.Now()
	for len(cpus) == 0 || time.Since(t0).Seconds() < minWall {
		runtime.GC()
		c0 := processCPU()
		sum := refKernel()
		cpus = append(cpus, processCPU()-c0)
		if sum != refChecksum {
			return fmt.Errorf("reference kernel checksum %#x, want %#x", sum, uint64(refChecksum))
		}
	}
	c.blocks = append(c.blocks, cpus)
	c.wallSum += time.Since(t0).Seconds()
	return nil
}

// around is the factor that turns iteration i's CPU seconds into
// seconds at the reference speed: the blocks on either side of it weigh
// the same, whatever their lengths.
func (c *calibration) around(i int) float64 {
	return refNominalS / ((median(c.blocks[i]) + median(c.blocks[i+1])) / 2)
}

// scale is the factor for CPU time spread over the whole run.
func (c *calibration) scale() float64 {
	var all []float64
	for _, b := range c.blocks {
		all = append(all, b...)
	}
	return refNominalS / median(all)
}

// runs is the number of kernel runs so far.
func (c *calibration) runs() int {
	n := 0
	for _, b := range c.blocks {
		n += len(b)
	}
	return n
}
