package main

import (
	"sort"
	"syscall"
	"time"

	"fabricsharp/internal/metrics"
)

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssPeakMB is the process's peak resident set so far, in MiB.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hist is an HDR histogram of durations recorded in nanoseconds.
type hist struct{ h metrics.HDRHistogram }

func (h *hist) add(d time.Duration) { h.h.Record(int64(d)) }

func (h *hist) n() uint64 { return h.h.Count() }

// ms returns quantile q in milliseconds.
func (h *hist) ms(q float64) float64 { return float64(h.h.Quantile(q)) / 1e6 }

// sliced keeps one HDR histogram per one-second slice of a window; every
// quantile the driver computes comes from one. Its quantile is the mean
// of the slices' quantiles: steadier than one quantile over the whole
// window (a single pause moves one slice), and not pinned to one bucket of
// the histogram's ~3% resolution.
type sliced struct {
	from   time.Duration
	slices []hist
}

func newSliced(from, to time.Duration) *sliced {
	n := int((to - from + time.Second - 1) / time.Second)
	return &sliced{from: from, slices: make([]hist, max(n, 1))}
}

// add records d for an event at instant at, which must lie in the window.
func (s *sliced) add(at, d time.Duration) {
	i := int((at - s.from) / time.Second)
	if i >= 0 && i < len(s.slices) {
		s.slices[i].add(d)
	}
}

func (s *sliced) ms(q float64) float64 {
	var sum float64
	n := 0
	for i := range s.slices {
		if s.slices[i].n() > 0 {
			sum += s.slices[i].ms(q)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func (s *sliced) us(q float64) float64 { return 1e3 * s.ms(q) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func pct(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
