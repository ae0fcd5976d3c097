package main

import "time"

// The machine this benchmark is gated on is a small shared VM whose speed
// changes by 10 to 40 % for tens of seconds at a time (and once, while the
// sizes were being frozen, by 3x for four minutes, with 57 % steal time).
// Ten runs of unchanged code spread — interquartile range over median — by
// 14 to 34 % on every timing metric, more than any bound the gate allows,
// and no estimator inside a 15 s window averages away a slow stretch longer
// than the window. A fixed piece of work timed beside each round tracks most
// of it: scaling each run's numbers by how fast the machine was while it ran
// roughly halves their run-to-run variation. The calibration is this file's
// code alone — nothing of the stack under test — so a change to the stack
// cannot move it.

// calibRefMs is what one calibration repeat takes on the reference machine:
// the one the sizes were frozen on, in its usual state. It only fixes the
// scale of the reported numbers; the gate compares runs that share it.
const calibRefMs = 3.7

const calibRepeats = 4

var calibSink uint64 // keeps the calibration work observable

// calibrate times a fixed piece of single-threaded work in this process —
// hashing, scattered writes over 512 KiB and a few thousand map inserts —
// calibRepeats times, about 15 ms in all, and returns each repeat's
// milliseconds.
func calibrate() []float64 {
	out := make([]float64, calibRepeats)
	for rep := range out {
		t := time.Now()
		xs := make([]uint64, 1<<16)
		h := uint64(1469598103934665603)
		for pass := 0; pass < 8; pass++ {
			for i := range xs {
				h = (h ^ uint64(i)) * 1099511628211
				xs[(h>>20)&(1<<16-1)] += h
			}
			m := map[uint64]int{}
			for i := 0; i < 4000; i++ {
				m[xs[i]]++
			}
			calibSink += uint64(len(m))
		}
		calibSink += h
		out[rep] = float64(time.Since(t)) / float64(time.Millisecond)
	}
	return out
}

// machineSpeed is how fast the machine ran during a window relative to the
// reference: above 1 it was faster, so measured rates are divided by it and
// measured latencies multiplied. It uses the mean of every repeat of every
// round's calibration, less the top and bottom tenth: a mean, because when
// the hypervisor takes the CPU away in bursts the fastest repeats slip
// between the bursts and only the average slows down as much as real work
// does; trimmed, so that one stall that hit one repeat does not count.
func machineSpeed(calibMs []float64) float64 {
	s := sorted(calibMs)
	trim := len(s) / 10
	if m := mean(s[trim : len(s)-trim]); m > 0 {
		return calibRefMs / m
	}
	return 1
}
