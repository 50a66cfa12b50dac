package main

import (
	"runtime/metrics"
	"sort"
	"time"
)

// heapLive is the runtime metric for the heap the last GC cycle marked
// live. Unlike the size of all heap objects, it does not depend on
// when the sampler happens to look between collections.
const heapLive = "/gc/heap/live:bytes"

// heapSampleEvery is the heap sampler's polling period. A shorter one
// costs the timed call measurable time in wake-ups.
const heapSampleEvery = 20 * time.Millisecond

// heapSampler polls the live heap on its own goroutine.
type heapSampler struct {
	stopc chan struct{}
	done  chan float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: heapLive}}
		var seen []uint64
		read := func() {
			metrics.Read(sample)
			seen = append(seen, sample[0].Value.Uint64())
		}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			read()
			select {
			case <-h.stopc:
				read()
				h.done <- float64(peakOf(seen)) / (1 << 20)
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakOf is the 99th percentile of the samples: the peak of a heap that
// grows to the end, without the single highest reading, which on a flat
// heap of a few MiB swings by a sixth from run to run.
func peakOf(samples []uint64) uint64 {
	s := append([]uint64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)-1)*99/100]
}

// stop ends sampling, waits for the sampler to exit and returns the
// peak in MiB.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	return <-h.done
}
