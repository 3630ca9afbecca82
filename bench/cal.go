package main

import "time"

// The calibration kernel: a xorshift generator driving reads and writes at
// random into a table, first a 512 KiB one that stays in the core's own
// cache, then a 4 MiB one that does not. It never allocates.
//
// Both phases are there because the host has two kinds of slow spell. Every
// phase slows when the processor is shared; only the second slows — by half
// — when a neighbour loads the memory system, and then the simulator slows
// by a fifth to a third. With the phases in these proportions the kernel
// slows by about as much as the four workloads do, so a repetition's time
// divided by the kernel's time next to it stays put. README.md has the
// measurements that fixed the proportions.
const (
	calSmallWords = 1 << 16 // 512 KiB of uint64
	calSmallIters = 15_000_000
	calLargeWords = 1 << 19 // 4 MiB of uint64
	calLargeIters = 5_000_000

	// CalRefS is the kernel's time on the reference host (2 vCPU Xeon
	// 2.1 GHz under KVM, go1.24) in its quiet state. Every host-time metric
	// is multiplied by CalRefS / (kernel time measured next to it), so its
	// unit stays reference-host seconds whatever the host.
	CalRefS = 0.050
)

var (
	calSmall [calSmallWords]uint64
	calLarge [calLargeWords]uint64
	calSink  uint64
)

func calPhase(tab []uint64, iters int) uint64 {
	x := uint64(0x9E3779B97F4A7C15)
	acc := calSink
	mask := uint64(len(tab) - 1)
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		acc += tab[j]
		tab[j] = acc ^ x
	}
	return acc
}

// calibrate runs the kernel once, at 1/div of its length, and returns its
// wall time in seconds. Every measured run passes 1.
func calibrate(div int) float64 {
	start := time.Now()
	calSink = calPhase(calSmall[:], calSmallIters/div)
	calSink = calPhase(calLarge[:], calLargeIters/div)
	return time.Since(start).Seconds()
}

// normalise converts a wall time measured between two calibration timings
// into reference-host seconds.
func normalise(wall, calBefore, calAfter float64) float64 {
	return wall * CalRefS / ((calBefore + calAfter) / 2)
}
