package main

import (
	"time"

	"fabricsharp/internal/ledger"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/wire"
)

type metricSet map[string]metric

func newMetricSet() metricSet { return metricSet{} }

func (m metricSet) add(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// fixedStats is what the fixed-rate phase measured over its window.
type fixedStats struct {
	commit, applied *sliced // scheduled instant → sealed verdict / applied on every peer
	orderWait, lag  *sliced // ack → sealed verdict; sealed → applied
	late            *sliced // scheduled instant → sender picked the op up
	samples         uint64
	blockTxs        float64
	blockInterval   *sliced
}

// fixedStats covers committed transactions scheduled in [from, to).
// Latency is taken from the scheduled instant, so a sender that falls
// behind shows up as latency, not as a lower offered rate.
func (s *session) fixedStats(from, to time.Duration) *fixedStats {
	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	out := &fixedStats{
		commit: newSliced(from, to), applied: newSliced(from, to),
		orderWait: newSliced(from, to), lag: newSliced(from, to),
		late: newSliced(from, to), blockInterval: newSliced(from, to),
	}
	for _, r := range t.recs {
		if r.phase != phaseFixed || !r.measured {
			continue
		}
		out.late.add(r.sched, r.start-r.sched)
		if r.via != viaBlock || !r.code.Committed() {
			continue
		}
		applied, ok := t.applied(r.block)
		if !ok {
			continue
		}
		out.samples++
		out.commit.add(r.sched, r.resolved-r.sched)
		out.applied.add(r.sched, applied-r.sched)
		out.orderWait.add(r.sched, r.resolved-r.acked)
		out.lag.add(r.sched, applied-r.resolved)
	}
	var txs, blocks int
	var prev time.Duration
	for _, b := range t.blocks {
		if b.arrived < from || b.arrived >= to {
			prev = b.arrived
			continue
		}
		txs += b.txs
		blocks++
		if prev > 0 {
			out.blockInterval.add(b.arrived, b.arrived-prev)
		}
		prev = b.arrived
	}
	if blocks > 0 {
		out.blockTxs = float64(txs) / float64(blocks)
	}
	return out
}

// satStats is what one saturation window measured.
type satStats struct {
	// capacity, goodput and cpuPerTx are scaled to the reference core
	// speed (probe.go); the raw* fields are as measured on this host.
	capacity, goodput, cpuPerTx       float64
	rawCapacity, rawCPUPerTx, probeUS float64
	cpuCores, windowFullPct           float64
	resolved                          uint64
	earlyAborts, mvccAborts, rescued  uint64
	endorse, submit                   *sliced
	perSec                            [64]int
}

// saturationStats counts verdicts that arrived inside the window; the
// driver-side call timings cover transactions dispatched inside it.
func (s *session) saturationStats(w saturation) *satStats {
	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	out := &satStats{endorse: newSliced(w.from, w.to), submit: newSliced(w.from, w.to)}
	var committed uint64
	for _, r := range t.recs {
		if r.phase != phaseSaturation {
			continue
		}
		if r.start >= w.from && r.start < w.to {
			out.endorse.add(r.start, r.endorsed-r.start)
			out.submit.add(r.start, r.acked-r.endorsed)
		}
		if r.via == 0 || r.resolved < w.from || r.resolved >= w.to {
			continue
		}
		out.resolved++
		switch {
		case r.code.Committed():
			committed++
			if r.code == protocol.Rescued {
				out.rescued++
			}
		case r.code.IsEarlyAbort():
			out.earlyAborts++
		case r.code == protocol.MVCCConflict:
			out.mvccAborts++
		}
	}
	dur := (w.to - w.from).Seconds()
	out.rawCapacity = float64(out.resolved) / dur
	if out.resolved > 0 {
		out.rawCPUPerTx = float64(w.cpu.Microseconds()) / float64(out.resolved)
	}
	out.probeUS = w.probeUS
	speed := (w.probeUS / probeRefUS) * (w.probeUS / probeRefUS)
	out.capacity = out.rawCapacity * speed
	out.goodput = float64(committed) / dur * speed
	out.cpuPerTx = out.rawCPUPerTx / speed
	out.cpuCores = w.cpu.Seconds() / dur
	out.windowFullPct = 100 * w.windowFull.Seconds() / dur
	return out
}

// perLayer adds the driver-side per-layer metrics: call timings around
// node.Client, verdict shares, block shape and load validity.
func perLayer(m metricSet, s *session, f *fixedStats, sat *satStats) {
	m.add("node.endorse_p50_us", sat.endorse.us(0.5), "us")
	m.add("node.endorse_p99_us", sat.endorse.us(0.99), "us")
	m.add("node.submit_p50_us", sat.submit.us(0.5), "us")
	m.add("node.submit_p99_us", sat.submit.us(0.99), "us")
	m.add("node.order_wait_p50_ms", f.orderWait.ms(0.5), "ms")
	m.add("node.order_wait_p99_ms", f.orderWait.ms(0.99), "ms")
	m.add("node.apply_lag_p50_ms", f.lag.ms(0.5), "ms")
	m.add("node.apply_lag_p99_ms", f.lag.ms(0.99), "ms")
	m.add("sched.early_abort_pct", pct(sat.earlyAborts, sat.resolved), "%")
	m.add("validation.mvcc_abort_pct", pct(sat.mvccAborts, sat.resolved), "%")
	m.add("reexec.rescued_pct", pct(sat.rescued, sat.resolved), "%")
	m.add("ledger.txs_per_block", f.blockTxs, "count")
	m.add("ledger.block_interval_ms", f.blockInterval.ms(0.5), "ms")
	m.add("wire.block_bytes_per_tx", blockBytesPerTx(s), "B")
	m.add("driver.late_p50_ms", f.late.ms(0.5), "ms")
	m.add("driver.late_p99_ms", f.late.ms(0.99), "ms")
	m.add("driver.cpu_cores", sat.cpuCores, "cores")
	m.add("driver.raw_capacity_tps", sat.rawCapacity, "tx/s")
	m.add("driver.raw_cpu_us_per_tx", sat.rawCPUPerTx, "us")
	m.add("host.probe_us", sat.probeUS, "us")
	m.add("driver.window_full_pct", sat.windowFullPct, "%")
	m.add("driver.fixed_samples", float64(f.samples), "count")
	m.add("driver.saturation_samples", float64(sat.resolved), "count")
}

// blockBytesPerTx is the wire size of every sealed block of the run over
// the transactions they carry.
func blockBytesPerTx(s *session) float64 {
	var bytes, txs int
	chain := s.c.orderers[0].Network().OrdererChain(0)
	var buf []byte
	chain.ForEach(func(b *ledger.Block) bool {
		buf = wire.AppendBlock(buf[:0], b)
		bytes += len(buf)
		txs += len(b.Transactions)
		return true
	})
	if txs == 0 {
		return 0
	}
	return float64(bytes) / float64(txs)
}
