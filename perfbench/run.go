package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"fabricsharp/internal/scenario"
)

const (
	// A run boots its cluster at least setupBoots times and for at least
	// setupMinimum; setup_s is the median boot, and the last boot carries
	// the load. Fast in-memory boots are repeated many times, so their
	// median is steady.
	setupBoots   = 5
	setupMinimum = time.Second
	// warmup precedes each phase's measured window and is not counted.
	warmup = time.Second
	// captureTxs bounds the endorsed transactions kept for the isolated
	// layer timings of a traced run.
	captureTxs = 4000
)

type runOptions struct {
	workload spec
	seed     int64
	measured time.Duration
	traced   bool
	tmp      string // temporary directory, removed when the run ends
	traceDir string // where a traced run writes its spans
	calibMS  float64
}

// gateError is a failed correctness gate: the run yields no numbers.
type gateError struct{ problems []string }

func (g *gateError) Error() string { return strings.Join(g.problems, "; ") }

// execute performs one run: boot (several times, for setup_s), the
// fixed-rate phase, the saturation phase, the correctness gate and
// teardown; a traced run adds a span-recording saturation window, the
// stage-ring drain and the isolated layer timings.
func execute(ctx context.Context, o runOptions) (res result, err error) {
	w := o.workload
	sc, ok := scenario.Get(w.scenario)
	if !ok {
		return res, fmt.Errorf("unknown scenario %q", w.scenario)
	}
	genesis := sc.GenesisWrites(w.params)
	gen, err := sc.Generator(rand.New(rand.NewSource(o.seed)), w.params)
	if err != nil {
		return res, err
	}
	fixedDur := o.measured / 4
	satDur := o.measured - fixedDur
	traceEvents := 0
	if o.traced {
		traceEvents = ringEvents(w, fixedDur, satDur)
	}

	var s *session
	defer func() {
		if s != nil {
			if cerr := s.close(); cerr != nil && err == nil {
				err = &gateError{problems: []string{cerr.Error()}}
			}
		}
	}()
	var setups []float64
	bootStart := time.Now()
	for i := 0; i < setupBoots || time.Since(bootStart) < setupMinimum; i++ {
		if ctx.Err() != nil {
			return res, ctx.Err()
		}
		if s != nil {
			cerr := s.close()
			s = nil
			if cerr != nil {
				return res, &gateError{problems: []string{cerr.Error()}}
			}
		}
		runtime.GC() // each boot starts from the same heap state
		t0 := time.Now()
		s, err = bootSession(w, filepath.Join(o.tmp, fmt.Sprintf("cluster%d", i)), genesis, traceEvents, runtime.NumCPU())
		if err != nil {
			return res, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	progress("booted %s %d times (setup median %.4fs)", w.name, len(setups), median(setups))
	var rtt float64
	if o.traced {
		s.tr.captureCap = captureTxs
		if rtt, err = statusRTT(s); err != nil {
			return res, err
		}
	}

	fixedFrom, fixedTo := s.fixedPhase(ctx, gen, w.fixedTPS, warmup, fixedDur)
	rssMB := rssPeakMB()
	progress("fixed-rate phase done")
	sat := s.saturationPhase(ctx, gen, warmup, satDur)
	progress("saturation phase done (probe %.1fus)", sat.probeUS)
	var tracedSat saturation
	if o.traced {
		s.tr.mu.Lock()
		s.tr.spans = make([]span, 0, 1<<16)
		s.tr.mu.Unlock()
		tracedSat = s.saturationPhase(ctx, gen, warmup, satDur)
		progress("traced saturation phase done")
	}
	if ctx.Err() != nil {
		return res, ctx.Err()
	}

	problems := s.gate(sc, &res)
	if len(problems) > 0 {
		return res, &gateError{problems: problems}
	}
	res.Correct = true
	m := newMetricSet()
	fixed := s.fixedStats(fixedFrom, fixedTo)
	satStats := s.saturationStats(sat)
	progress("saturation raw %.1f tx/s, %.1f us/tx at probe %.1fus", satStats.rawCapacity, satStats.rawCPUPerTx, satStats.probeUS)
	if !o.traced {
		m.add("setup_s", median(setups), "s")
		m.add("capacity_tps", satStats.capacity, "tx/s")
		m.add("goodput_tps", satStats.goodput, "tx/s")
		m.add("cpu_us_per_tx", satStats.cpuPerTx, "us")
		m.add("commit_p50_ms", fixed.commit.ms(0.5), "ms")
		m.add("commit_p99_ms", fixed.commit.ms(0.99), "ms")
		m.add("applied_p50_ms", fixed.applied.ms(0.5), "ms")
		m.add("applied_p99_ms", fixed.applied.ms(0.99), "ms")
		m.add("resolved_pct", pct(res.Attempted-res.Failed, res.Attempted), "%")
		m.add("rss_peak_mb", rssMB, "MiB")
		res.Metrics = m
		return res, nil
	}

	tracedStats := s.saturationStats(tracedSat)
	perLayer(m, s, fixed, satStats)
	m.add("host.calibration_ms", o.calibMS, "ms")
	m.add("transport.status_rtt_us", rtt, "us")
	overhead := 0.0
	if satStats.capacity > 0 {
		overhead = 100 * (satStats.capacity - tracedStats.capacity) / satStats.capacity
	}
	m.add("trace.overhead_pct", overhead, "%")
	if err := s.traceReport(m, o.traceDir, w, o.seed); err != nil {
		return res, err
	}
	if err := isolated(ctx, m, s, genesis, o.tmp); err != nil {
		return res, err
	}
	res.Metrics = m
	return res, nil
}

// gate runs the correctness gate: every submitted transaction resolved
// exactly once, nothing failed, and the replicas agree (cluster.go). It
// fills in the result's attempted and failed counts.
func (s *session) gate(sc scenario.Scenario, res *result) []string {
	problems := s.c.checkAgreement(sc)
	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	res.Attempted = t.attempted
	res.Failed = t.failed + uint64(len(t.inflight))
	problems = append(problems, t.problems...)
	if n := len(t.inflight); n > 0 {
		problems = append(problems, fmt.Sprintf("%d transactions never resolved", n))
	}
	var inBlocks int
	for _, b := range t.blocks {
		inBlocks += b.txs
	}
	var viaBlocks int
	for _, r := range t.recs {
		if r.via == viaBlock {
			viaBlocks++
		}
	}
	if inBlocks != viaBlocks {
		problems = append(problems, fmt.Sprintf("blocks carry %d transactions but %d resolved through blocks", inBlocks, viaBlocks))
	}
	return problems
}

// ringEvents sizes the stage rings of a traced run so they cannot wrap: at
// most four events per transaction per node, at a generous bound on
// throughput.
func ringEvents(w spec, fixedDur, satDur time.Duration) int {
	const maxTPS = 6000
	txs := float64(w.fixedTPS)*(warmup+fixedDur).Seconds() + maxTPS*2*(warmup+satDur).Seconds()
	return int(4 * txs)
}

func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
