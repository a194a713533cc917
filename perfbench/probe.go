package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// probeEvery and probeIters size the host-speed probe: a fixed integer loop
// timed in thread CPU time a few times a second, so it measures how fast a
// core runs fixed work (a busy neighbour, a lower clock) at a negligible
// share of one core, independent of how the Go scheduler shares the cores.
const (
	probeEvery = 100 * time.Millisecond
	probeIters = 100_000
)

// probeRefUS is the probe's reading on the reference core. CPU-bound
// end-to-end metrics are reported at that speed. A window whose probe read
// p is taken to have run (p/probeRefUS)² times slower than the reference:
// the cluster's work is memory-bound, and on a shared 2-vCPU host its
// throughput moved with the square of the integer probe's slowdown (see
// README.md for the measurements).
const probeRefUS = 300.0

// probe samples core speed until stopped.
type probe struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // µs of thread CPU per probe loop
}

func startProbe() *probe {
	p := &probe{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
			t0 := threadCPU()
			calibSink += calibLoop(probeIters)
			p.samples = append(p.samples, float64(threadCPU()-t0)/1e3)
		}
	}()
	return p
}

// finish stops the probe and returns the median sample.
func (p *probe) finish() float64 {
	close(p.stop)
	<-p.done
	return median(p.samples)
}

// threadCPU is the calling thread's CPU time in nanoseconds.
func threadCPU() int64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}
