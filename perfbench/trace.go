package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fabricsharp/internal/node"
	"fabricsharp/internal/trace"
)

// spanNames are the driver's span kinds: a root per transaction and its
// four children, tied together by TxID.
var spanNames = []string{"tx", "endorse", "submit", "order_wait", "apply_wait"}

// stageGaps are the stage transitions reported from the nodes' rings. A
// standalone orderer has no raft-commit stage, so it shows order→seal; a
// Raft cluster shows order→raft-commit→seal. Transitions a workload does
// not exhibit are reported as 0 and named on stderr.
var stageGaps = [][2]trace.Stage{
	{trace.StageSubmit, trace.StageOrder},
	{trace.StageOrder, trace.StageSeal},
	{trace.StageOrder, trace.StageRaftCommit},
	{trace.StageRaftCommit, trace.StageSeal},
	{trace.StageSeal, trace.StageDeliver},
	{trace.StageDeliver, trace.StageValidate},
	{trace.StageValidate, trace.StageCommit},
}

func gapName(g [2]trace.Stage) string { return "trace." + g[0].String() + "_" + g[1].String() }

// traceReport completes the span tree of the traced window, writes it to
// outDir, reports self time per span kind, then drains every node's stage
// ring and reports each stage transition and the trace coverage.
func (s *session) traceReport(m metricSet, outDir string, w spec, seed int64) error {
	t := s.tr
	t.mu.Lock()
	spans := t.spans
	t.spans = nil
	traced := make(map[string]bool)
	for _, sp := range spans {
		if sp.Name == "endorse" {
			traced[sp.TxID] = true
		}
	}
	var committed []string
	for _, r := range t.recs {
		if r.via == viaBlock && r.code.Committed() {
			committed = append(committed, r.id)
		}
		if !traced[r.id] {
			continue
		}
		end := r.resolved
		if r.via == viaBlock {
			if applied, ok := t.applied(r.block); ok {
				spans = append(spans, span{TxID: r.id, Name: "apply_wait", Parent: r.id, Start: int64(r.resolved), End: int64(applied)})
				end = applied
			}
		}
		spans = append(spans, span{TxID: r.id, Name: "tx", Start: int64(r.sched), End: int64(end)})
	}
	t.mu.Unlock()

	// Self time: a span's duration minus its children's.
	children := make(map[string]int64)
	for _, sp := range spans {
		if sp.Parent != "" {
			children[sp.Parent] += sp.End - sp.Start
		}
	}
	var from, to time.Duration
	for i, sp := range spans {
		if at := time.Duration(sp.Start); i == 0 || at < from {
			from = at
		}
		if at := time.Duration(sp.Start); at >= to {
			to = at + 1
		}
	}
	self := make(map[string]*sliced, len(spanNames))
	for _, n := range spanNames {
		self[n] = newSliced(from, to)
	}
	for _, sp := range spans {
		d := sp.End - sp.Start
		if sp.Parent == "" {
			d -= children[sp.TxID]
		}
		if h := self[sp.Name]; h != nil {
			h.add(time.Duration(sp.Start), time.Duration(d))
		}
	}
	for _, n := range spanNames {
		m.add("span."+n+"_self_p50_ms", self[n].ms(0.5), "ms")
	}
	if err := writeSpans(filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed)), spans); err != nil {
		return err
	}

	addrs := append(append([]string(nil), s.c.ordAddrs...), s.c.peerAddrs...)
	timelines, dumps, err := node.FetchTimelines(addrs, 10*time.Second)
	if err != nil {
		return err
	}
	for _, d := range dumps {
		if lost := d.Recorded - uint64(len(d.Events)); lost > 0 {
			progress("stage ring of %s lost %d of %d events", d.Node, lost, d.Recorded)
		}
	}
	sum := trace.Summarize(timelines)
	gaps := make(map[[2]trace.Stage]trace.StageGap, len(sum.Gaps))
	for _, g := range sum.Gaps {
		gaps[[2]trace.Stage{g.From, g.To}] = g
	}
	for _, k := range stageGaps {
		g, ok := gaps[k]
		if !ok {
			progress("%s: transition not exhibited on %s, reported as 0", gapName(k), w.name)
		}
		m.add(gapName(k)+"_p50_ms", g.P50, "ms")
		m.add(gapName(k)+"_p99_ms", g.P99, "ms")
	}
	cov := trace.Coverage(timelines, committed, trace.StageSubmit, trace.StageSeal, trace.StageCommit)
	m.add("trace.coverage_pct", 100*cov, "%")
	return nil
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	progress("wrote %d spans to %s", len(spans), path)
	return f.Close()
}
