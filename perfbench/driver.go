package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fabricsharp/internal/ledger"
	"fabricsharp/internal/node"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/transport"
	"fabricsharp/internal/workload"
)

const (
	phaseFixed = iota
	phaseSaturation
)

const (
	viaBlock = 1 + iota
	viaPoll
)

// Poll cadence for transactions that never reach a block (early aborts):
// a transaction is polled once two blocks sealed after its ack without it,
// or pollAfter after its ack, then at most every pollRetry.
const (
	pollTick  = 5 * time.Millisecond
	pollAfter = 250 * time.Millisecond
	pollRetry = 100 * time.Millisecond
)

// txRec is one transaction's life as the driver saw it. Times are offsets
// from the tracker's base instant.
type txRec struct {
	id        string
	phase     int
	measured  bool          // fixed rate: scheduled after the warm-up
	sched     time.Duration // scheduled instant (fixed rate) or dispatch instant
	start     time.Duration // sender picked the job up, Endorse called
	endorsed  time.Duration
	acked     time.Duration
	resolved  time.Duration // verdict seen: block arrival or successful poll
	ackHeight uint64
	nextPoll  time.Duration
	block     uint64
	code      protocol.ValidationCode
	via       int
	failed    bool
}

// blockRec is one sealed block as it reached the verdict subscriber.
type blockRec struct {
	arrived time.Duration
	txs     int
}

// span is one traced interval; parent spans are named by TxID.
type span struct {
	TxID   string `json:"tx"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracker joins what senders, the verdict subscriber, the early-abort
// poller and the apply watcher observe, and records every violation of
// "each submitted transaction resolves exactly once".
type tracker struct {
	base time.Time

	mu        sync.Mutex
	byID      map[string]*txRec
	inflight  map[string]*txRec
	recs      []*txRec
	blocks    []*blockRec
	appliedAt []time.Duration // index = block number; 0 = not yet applied on every peer
	problems  []string
	attempted uint64
	failed    uint64

	// capture keeps endorsed transactions (submission order) for the
	// isolated layer timings; captureCap bounds it.
	capture    []*protocol.Transaction
	captureCap int

	// spans is non-nil while span recording is on.
	spans []span

	height atomic.Uint64 // highest block delivered to the subscriber
	window chan struct{}
}

func newTracker(window int) *tracker {
	return &tracker{
		base:      time.Now(),
		byID:      make(map[string]*txRec),
		inflight:  make(map[string]*txRec),
		appliedAt: []time.Duration{0},
		window:    make(chan struct{}, window),
	}
}

func (t *tracker) now() time.Duration { return time.Since(t.base) }

func (t *tracker) problem(format string, args ...any) {
	if len(t.problems) < 20 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

func (t *tracker) release(phase, n int) {
	if phase != phaseSaturation {
		return
	}
	for i := 0; i < n; i++ {
		<-t.window
	}
}

// register records an endorsed transaction before it is submitted, so a
// verdict can never arrive for an unknown ID.
func (t *tracker) register(r *txRec, tx *protocol.Transaction) {
	t.mu.Lock()
	t.byID[r.id] = r
	t.inflight[r.id] = r
	t.recs = append(t.recs, r)
	if len(t.capture) < t.captureCap {
		t.capture = append(t.capture, tx)
	}
	t.mu.Unlock()
}

func (t *tracker) attempt() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

// fail counts a transaction that could not be endorsed or submitted.
func (t *tracker) fail(phase int, r *txRec, err error) {
	t.mu.Lock()
	t.failed++
	t.problem("transaction failed: %v", err)
	if r != nil {
		r.failed = true
		delete(t.inflight, r.id)
	}
	t.mu.Unlock()
	t.release(phase, 1)
}

func (t *tracker) acked(r *txRec, at time.Duration) {
	t.mu.Lock()
	r.acked = at
	r.ackHeight = t.height.Load()
	t.mu.Unlock()
}

// onBlock resolves every transaction of a sealed block.
func (t *tracker) onBlock(blk *ledger.Block) error {
	num := blk.Header.Number
	if num <= t.height.Load() {
		return nil // replayed after a resubscribe
	}
	now := t.now()
	released := 0
	t.mu.Lock()
	t.blocks = append(t.blocks, &blockRec{arrived: now, txs: len(blk.Transactions)})
	for i, tx := range blk.Transactions {
		r := t.byID[string(tx.ID)]
		switch {
		case r == nil:
			t.problem("block %d carries unknown transaction %s", num, tx.ID)
			continue
		case r.via != 0:
			t.problem("transaction %s resolved twice (block %d)", tx.ID, num)
			continue
		}
		r.via, r.block, r.code, r.resolved = viaBlock, num, blk.Validation[i], now
		delete(t.inflight, r.id)
		if r.phase == phaseSaturation && !r.failed {
			released++
		}
		t.orderWaitSpan(r, now)
	}
	t.height.Store(num)
	t.mu.Unlock()
	t.release(phaseSaturation, released)
	return nil
}

// pollCandidates picks in-flight transactions that should have reached a
// block by now and marks them as being polled.
func (t *tracker) pollCandidates() []*txRec {
	now := t.now()
	h := t.height.Load()
	var out []*txRec
	t.mu.Lock()
	for _, r := range t.inflight {
		if r.acked == 0 || r.nextPoll > now {
			continue
		}
		if h >= r.ackHeight+2 || now-r.acked >= pollAfter {
			r.nextPoll = now + pollRetry
			out = append(out, r)
		}
	}
	t.mu.Unlock()
	return out
}

// onPoll settles one poll answer: an early abort resolves the transaction;
// anything else waits for its block.
func (t *tracker) onPoll(r *txRec, found bool, code protocol.ValidationCode) {
	now := t.now()
	t.mu.Lock()
	if !found || !code.IsEarlyAbort() {
		if !found {
			r.ackHeight = t.height.Load()
		}
		t.mu.Unlock()
		return
	}
	if r.via != 0 {
		t.problem("transaction %s resolved twice (poll after block %d)", r.id, r.block)
		t.mu.Unlock()
		return
	}
	r.via, r.code, r.resolved = viaPoll, code, now
	delete(t.inflight, r.id)
	t.orderWaitSpan(r, now)
	t.mu.Unlock()
	t.release(r.phase, 1)
}

// orderWaitSpan records the ack → verdict span while spans are on. A
// verdict can beat the submit ack back to the driver (a Raft ack waits for
// the quorum round); that transaction waited for nothing after its ack.
// Callers hold t.mu.
func (t *tracker) orderWaitSpan(r *txRec, verdict time.Duration) {
	if t.spans == nil {
		return
	}
	from := r.acked
	if from == 0 || from > verdict {
		from = verdict
	}
	t.spans = append(t.spans, span{TxID: r.id, Name: "order_wait", Parent: r.id, Start: int64(from), End: int64(verdict)})
}

// markApplied stamps blocks up to h as applied on every peer.
func (t *tracker) markApplied(h uint64) {
	now := t.now()
	t.mu.Lock()
	for uint64(len(t.appliedAt)) <= h {
		t.appliedAt = append(t.appliedAt, now)
	}
	t.mu.Unlock()
}

// applied returns when block b was applied on every peer (ok=false if not
// yet).
func (t *tracker) applied(b uint64) (time.Duration, bool) {
	if b == 0 || b >= uint64(len(t.appliedAt)) {
		return 0, false
	}
	return t.appliedAt[b], true
}

// inflightOf counts unresolved transactions of a phase.
func (t *tracker) inflightOf(phase int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, r := range t.inflight {
		if r.phase == phase {
			n++
		}
	}
	return n
}

// session is a booted cluster plus everything the driver attaches to it:
// one wire client per sender, a polling client, the verdict subscriber and
// the apply watcher.
type session struct {
	c       *cluster
	tr      *tracker
	senders []*node.Client
	poller  *node.Client
	sub     *transport.Subscriber
	stop    chan struct{}
	wg      sync.WaitGroup
	closed  bool
}

// bootSession boots the cluster and attaches the driver; on error nothing
// it started is left running.
func bootSession(w spec, dir string, genesis []protocol.WriteItem, traceEvents, senders int) (s *session, err error) {
	c, err := startCluster(w, dir, genesis, traceEvents)
	if err != nil {
		return nil, err
	}
	s = &session{c: c, tr: newTracker(w.window), stop: make(chan struct{})}
	defer func() {
		if err != nil {
			_ = s.close()
			s = nil
		}
	}()
	for i := 0; i < senders; i++ {
		cl, err := node.DialClient(fmt.Sprintf("s%d", i), c.ordAddrs, c.peerAddrs, 10*time.Second)
		if err != nil {
			return s, err
		}
		s.senders = append(s.senders, cl)
	}
	if s.poller, err = node.DialClient("poll", c.ordAddrs, c.peerAddrs, 10*time.Second); err != nil {
		return s, err
	}
	s.sub = &transport.Subscriber{
		Addrs:   c.ordAddrs,
		Height:  s.tr.height.Load,
		Deliver: transport.DeliveryFunc(s.tr.onBlock),
		OnError: func(err error) {
			s.tr.mu.Lock()
			s.tr.problem("verdict subscriber: %v", err)
			s.tr.mu.Unlock()
		},
	}
	s.sub.Start()
	s.wg.Add(2)
	go s.pollLoop()
	go s.applyLoop()
	return s, nil
}

// pollLoop finds early-aborted transactions, which never appear in a block.
func (s *session) pollLoop() {
	defer s.wg.Done()
	tick := time.NewTicker(pollTick)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
		}
		for _, r := range s.tr.pollCandidates() {
			res, err := s.poller.PollResult(r.id)
			if err != nil {
				continue // retried on a later tick
			}
			s.tr.onPoll(r, res.Found, res.Code)
		}
	}
}

// applyLoop stamps the instant every peer has applied each block, reading
// the peers' state heights in memory.
func (s *session) applyLoop() {
	defer s.wg.Done()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	var done uint64
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
		}
		h := ^uint64(0)
		for _, p := range s.c.peers {
			if got := p.State().Height(); got < h {
				h = got
			}
		}
		if h > done {
			s.tr.markApplied(h)
			done = h
		}
	}
}

// close detaches the driver and tears the cluster down; it returns an
// error if any listening address survived. Idempotent.
func (s *session) close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	close(s.stop)
	s.wg.Wait()
	if s.sub != nil {
		s.sub.Close()
	}
	for _, cl := range s.senders {
		cl.Close()
	}
	if s.poller != nil {
		s.poller.Close()
	}
	return s.c.close()
}

// job is one operation handed to a sender.
type job struct {
	op       workload.Op
	sched    time.Duration
	measured bool
}

// runSenders starts one goroutine per client; each endorses then submits
// and does not wait for the verdict. Once ctx is done they only drain jobs.
func (s *session) runSenders(ctx context.Context, phase int, jobs <-chan job) *sync.WaitGroup {
	var wg sync.WaitGroup
	for _, cl := range s.senders {
		wg.Add(1)
		go func(cl *node.Client) {
			defer wg.Done()
			for j := range jobs {
				if ctx.Err() == nil {
					s.send(cl, phase, j)
				}
			}
		}(cl)
	}
	return &wg
}

func (s *session) send(cl *node.Client, phase int, j job) {
	t := s.tr
	t.attempt()
	start := t.now()
	tx, err := cl.Endorse(j.op.Contract, j.op.Function, j.op.Args...)
	endorsed := t.now()
	if err != nil {
		t.fail(phase, nil, err)
		return
	}
	r := &txRec{id: string(tx.ID), phase: phase, measured: j.measured, sched: j.sched, start: start, endorsed: endorsed}
	t.register(r, tx)
	if err := cl.SubmitTx(tx); err != nil {
		t.fail(phase, r, err)
		return
	}
	acked := t.now()
	t.acked(r, acked)
	t.mu.Lock()
	if t.spans != nil {
		t.spans = append(t.spans,
			span{TxID: r.id, Name: "endorse", Parent: r.id, Start: int64(start), End: int64(endorsed)},
			span{TxID: r.id, Name: "submit", Parent: r.id, Start: int64(endorsed), End: int64(acked)})
	}
	t.mu.Unlock()
}

// fixedPhase offers ops at a constant rate for warm+dur: op i is scheduled
// at start + i/tps whatever happened to earlier ones (open loop), and
// latency is later taken from that scheduled instant.
func (s *session) fixedPhase(ctx context.Context, gen workload.Generator, tps int, warm, dur time.Duration) (time.Duration, time.Duration) {
	runtime.GC() // every phase starts from the same point of the GC cycle
	period := time.Second / time.Duration(tps)
	total := int((warm + dur) / period)
	jobs := make(chan job, total)
	wg := s.runSenders(ctx, phaseFixed, jobs)
	start := s.tr.now() + time.Millisecond
	warmEnd := start + warm
	for i := 0; i < total && ctx.Err() == nil; {
		due := int((s.tr.now()-start)/period) + 1
		if due > total {
			due = total
		}
		for ; i < due; i++ {
			at := start + time.Duration(i)*period
			jobs <- job{op: gen.Next(), sched: at, measured: at >= warmEnd}
		}
		time.Sleep(200 * time.Microsecond)
	}
	close(jobs)
	wg.Wait()
	end := start + time.Duration(total)*period
	s.drain(ctx, phaseFixed)
	return warmEnd, end
}

// saturation is what the closed-loop phase measured over its window.
type saturation struct {
	from, to   time.Duration
	cpu        time.Duration // process CPU over [from, to)
	windowFull time.Duration // time the in-flight window was full within [from, to)
	probeUS    float64       // median host-speed probe over ramp and window
}

// saturationPhase keeps the in-flight window full for ramp+dur: a new op is
// dispatched as soon as a window slot frees and a sender is idle.
func (s *session) saturationPhase(ctx context.Context, gen workload.Generator, ramp, dur time.Duration) saturation {
	runtime.GC()
	jobs := make(chan job)
	wg := s.runSenders(ctx, phaseSaturation, jobs)
	t := s.tr
	from := t.now() + ramp
	to := from + dur
	out := saturation{from: from, to: to}
	pr := startProbe()
	var cpuFrom time.Duration
	cpuMarked := false
	for ctx.Err() == nil {
		now := t.now()
		if now >= to {
			break
		}
		if !cpuMarked && now >= from {
			cpuFrom, cpuMarked = processCPU(), true
		}
		select {
		case t.window <- struct{}{}:
		default:
			blocked := t.now()
			select {
			case t.window <- struct{}{}:
			case <-ctx.Done():
				continue
			}
			if blocked >= from {
				out.windowFull += t.now() - blocked
			}
		}
		jobs <- job{op: gen.Next(), sched: t.now()}
	}
	out.cpu = processCPU() - cpuFrom
	if !cpuMarked {
		out.cpu = 0
	}
	out.probeUS = pr.finish()
	close(jobs)
	wg.Wait()
	s.drain(ctx, phaseSaturation)
	return out
}

// drain waits until every transaction of the phase resolved and every
// peer applied the lead orderer's tip.
func (s *session) drain(ctx context.Context, phase int) {
	deadline := time.Now().Add(30 * time.Second)
	for ctx.Err() == nil && time.Now().Before(deadline) && s.tr.inflightOf(phase) > 0 {
		time.Sleep(5 * time.Millisecond)
	}
	for ctx.Err() == nil && time.Now().Before(deadline) {
		h := s.c.ordererHeight()
		s.tr.mu.Lock()
		_, ok := s.tr.applied(h)
		s.tr.mu.Unlock()
		if ok || h == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}
