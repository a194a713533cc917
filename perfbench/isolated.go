package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"fabricsharp/internal/chaincode"
	"fabricsharp/internal/commit"
	"fabricsharp/internal/consensus"
	"fabricsharp/internal/identity"
	"fabricsharp/internal/kvstore"
	"fabricsharp/internal/ledger"
	"fabricsharp/internal/node"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/scenario"
	"fabricsharp/internal/sched"
	"fabricsharp/internal/seqno"
	"fabricsharp/internal/statedb"
	"fabricsharp/internal/validation"
	"fabricsharp/internal/wire"
	"fabricsharp/internal/workload"
)

const (
	// isoRounds repeats each isolated timing; the median round is reported.
	isoRounds = 5
	// isoBlocks bounds the sealed blocks replayed per round.
	isoBlocks = 60
	// isoSyncBatches bounds the fsync'd batches per round.
	isoSyncBatches = 20
)

// sink keeps results of timed calls alive.
var sink any

// perOp runs fn(0..n-1) isoRounds times and returns the median round's cost
// per call in microseconds. setup, when non-nil, runs untimed before each
// round.
func perOp(n int, setup func(), fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	rounds := make([]float64, isoRounds)
	for r := range rounds {
		if setup != nil {
			setup()
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		rounds[r] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(n)
	}
	return median(rounds)
}

// isolated times each layer's public functions on inputs captured from
// this run — its endorsed transactions (submission order, from the start
// of the run) and its first sealed blocks — with the cluster idle.
func isolated(ctx context.Context, m metricSet, s *session, genesis []protocol.WriteItem, tmp string) error {
	s.tr.mu.Lock()
	txs := append([]*protocol.Transaction(nil), s.tr.capture...)
	s.tr.mu.Unlock()
	var blocks []*ledger.Block
	var encBlocks [][]byte
	s.c.orderers[0].Network().OrdererChain(0).ForEach(func(b *ledger.Block) bool {
		enc := wire.EncodeBlock(b)
		encBlocks = append(encBlocks, enc)
		blocks = append(blocks, b)
		return len(blocks) < isoBlocks
	})
	if len(txs) == 0 || len(blocks) == 0 {
		return fmt.Errorf("isolated timings: nothing captured (%d transactions, %d blocks)", len(txs), len(blocks))
	}
	// fresh decodes independent copies of the captured blocks.
	fresh := func() []*ledger.Block {
		out := make([]*ledger.Block, len(encBlocks))
		for i, enc := range encBlocks {
			b, err := wire.DecodeBlock(enc)
			if err != nil {
				panic(err)
			}
			out[i] = b
		}
		return out
	}
	msp := identity.NewService()
	for _, name := range peerNames {
		if err := msp.Register(name, identity.RolePeer, identity.Deterministic(name, identity.RolePeer).Public()); err != nil {
			return err
		}
	}
	vopts := validation.Options{MSP: msp, Policy: identity.AnyPeerOf(peerNames...)}
	registry := chaincode.NewRegistry(scenario.AllContracts()...)
	workers := runtime.GOMAXPROCS(0)

	// identity: endorsement signing and signature verification.
	digests := make([][]byte, len(txs))
	for i, tx := range txs {
		digests[i] = tx.Digest()
	}
	signer := identity.Deterministic(peerNames[0], identity.RolePeer)
	m.add("identity.sign_us", perOp(min(len(txs), 1000), nil, func(i int) { sink = signer.Sign(digests[i]) }), "us")
	var bad int
	m.add("identity.verify_us", perOp(min(len(txs), 1000), nil, func(i int) {
		e := txs[i].Endorsements[0]
		if !msp.Verify(e.EndorserID, digests[i], e.Signature) {
			bad++
		}
	}), "us")
	if bad > 0 {
		return fmt.Errorf("isolated timings: %d captured endorsements failed to verify", bad)
	}

	if err := ctx.Err(); err != nil {
		return err
	}
	// wire: transaction and block codecs.
	encTxs := make([][]byte, len(txs))
	for i, tx := range txs {
		encTxs[i] = wire.EncodeTransaction(tx)
	}
	m.add("wire.tx_encode_us", perOp(len(txs), nil, func(i int) { sink = wire.EncodeTransaction(txs[i]) }), "us")
	var decodeErr error
	m.add("wire.tx_decode_us", perOp(len(txs), nil, func(i int) {
		var err error
		if sink, err = wire.DecodeTransaction(encTxs[i]); err != nil {
			decodeErr = err
		}
	}), "us")
	m.add("wire.block_decode_us", perOp(len(encBlocks), nil, func(i int) {
		var err error
		if sink, err = wire.DecodeBlock(encBlocks[i]); err != nil {
			decodeErr = err
		}
	}), "us")
	if decodeErr != nil {
		return fmt.Errorf("isolated wire decode: %w", decodeErr)
	}

	// chaincode and statedb: simulation on a snapshot of a peer's final
	// state, and the range scan the analytics contract issues.
	db := s.c.peers[0].State()
	reader := snapshotReader{db: db, snap: db.Height()}
	contracts := make([]chaincode.Contract, len(txs))
	for i, tx := range txs {
		c, ok := registry.Get(tx.Contract)
		if !ok {
			return fmt.Errorf("isolated timings: unknown contract %q", tx.Contract)
		}
		contracts[i] = c
	}
	n := min(len(txs), 1000)
	m.add("chaincode.simulate_us", perOp(n, nil, func(i int) {
		sink, _ = chaincode.Simulate(contracts[i], txs[i].Function, txs[i].Args, reader)
	}), "us")
	m.add("statedb.range_us", perOp(20, nil, func(int) {
		sink = db.KeysInRange(chaincode.MetricKey(""), "metric;", reader.snap)
	}), "us")
	if ctx.Err() != nil {
		return ctx.Err()
	}

	if err := ctx.Err(); err != nil {
		return err
	}
	// statedb apply and the committer: the captured blocks applied in order
	// onto a fresh genesis state.
	var applyDB *statedb.DB
	var applyBlocks []*ledger.Block
	apply := perOp(len(blocks), func() {
		applyDB = seeded(genesis)
		applyBlocks = fresh()
	}, func(i int) {
		b := applyBlocks[i]
		if err := applyDB.ApplyBlock(b.Header.Number, commit.WritesFor(b, b.Validation)); err != nil {
			panic(err)
		}
	})
	m.add("statedb.apply_block_us", apply, "us")

	var committer *commit.Committer
	var done chan struct{}
	var commitBlocks []*ledger.Block
	var commitErr error
	commitUS := perOp(len(blocks), func() {
		if committer != nil {
			committer.Close()
		}
		chain, _ := ledger.NewChain(nil)
		done = make(chan struct{}, 1)
		committer = commit.New(commit.Config{
			Name:  "iso",
			State: seeded(genesis),
			Chain: chain,
			Validation: commit.Options{
				Options: vopts, Workers: workers, Rescue: true, Registry: registry,
			},
			OnCommit: func(*ledger.Block, []protocol.ValidationCode) { done <- struct{}{} },
			OnError:  func(err error) { commitErr = err; done <- struct{}{} },
		})
		committer.Start()
		commitBlocks = fresh()
	}, func(i int) {
		committer.Deliver(commitBlocks[i])
		<-done
	})
	committer.Close()
	if commitErr != nil {
		return fmt.Errorf("isolated committer: %w", commitErr)
	}
	m.add("commit.block_us", commitUS, "us")

	if err := ctx.Err(); err != nil {
		return err
	}
	// validation: the orderer's shadow pass — endorsement precheck per
	// transaction and verdicts per block over a genesis shadow state.
	var totalTxs int
	for _, b := range blocks {
		totalTxs += len(b.Transactions)
	}
	precheck := perOp(len(blocks), nil, func(i int) {
		sink = validation.PrecheckEndorsements(blocks[i].Transactions, vopts, workers)
	})
	m.add("validation.precheck_us_per_tx", precheck*float64(len(blocks))/float64(totalTxs), "us")
	var shadow *validation.ShadowState
	m.add("validation.verdicts_us_per_block", perOp(len(blocks), func() {
		shadow = validation.NewShadowState()
		for _, wi := range genesis {
			shadow.Seed(wi.Key, wi.Value, workload.GenesisVersion())
		}
	}, func(i int) {
		b := blocks[i]
		codes := validation.ComputeVerdicts(shadow, b.Header.Number, b.Transactions, vopts)
		shadow.Apply(b.Header.Number, b.Transactions, codes)
	}), "us")

	if err := ctx.Err(); err != nil {
		return err
	}
	// sched: a fresh fabric# scheduler replaying the captured stream. A
	// block is cut when blockSize transactions are pending, or before a
	// transaction simulated against a block the replay has not formed yet;
	// the replay stops at a transaction whose snapshot it cannot reach.
	var arrivalUS, formationUS []float64
	for r := 0; r < isoRounds; r++ {
		sch, err := sched.New(system, sched.Options{MaxSpan: 10})
		if err != nil {
			return err
		}
		stream := make([]*protocol.Transaction, len(encTxs))
		for i, enc := range encTxs {
			if stream[i], err = wire.DecodeTransaction(enc); err != nil {
				return err
			}
		}
		var arrivalNS, formationNS int64
		var arrivals, formations int
		var formed uint64
		cut := func() error {
			t0 := time.Now()
			res, err := sch.OnBlockFormation()
			if err != nil {
				return err
			}
			formationNS += time.Since(t0).Nanoseconds()
			formations++
			formed = res.Block
			sch.OnBlockCommitted(res.Block, res.Ordered, make([]protocol.ValidationCode, len(res.Ordered)))
			return nil
		}
		for _, tx := range stream {
			for tx.SnapshotBlock > formed && sch.PendingCount() > 0 {
				if err := cut(); err != nil {
					return err
				}
			}
			if tx.SnapshotBlock > formed {
				break
			}
			t0 := time.Now()
			if _, err := sch.OnArrival(tx); err != nil {
				return err
			}
			arrivalNS += time.Since(t0).Nanoseconds()
			arrivals++
			if sch.PendingCount() >= blockSize {
				if err := cut(); err != nil {
					return err
				}
			}
		}
		if sch.PendingCount() > 0 {
			if err := cut(); err != nil {
				return err
			}
		}
		arrivalUS = append(arrivalUS, float64(arrivalNS)/1e3/float64(max(arrivals, 1)))
		formationUS = append(formationUS, float64(formationNS)/1e3/float64(max(formations, 1)))
	}
	m.add("sched.arrival_us", median(arrivalUS), "us")
	m.add("sched.formation_us", median(formationUS), "us")

	if err := ctx.Err(); err != nil {
		return err
	}
	// consensus: three RaftCores stepped in memory, Append until the
	// leader's commit index covers the entry.
	members := []string{"a", "b", "c"}
	var cores map[string]*consensus.RaftCore
	raftUS := perOp(len(txs), func() {
		cores = make(map[string]*consensus.RaftCore, len(members))
		for _, id := range members {
			cores[id], _ = consensus.NewRaftCore(id, members)
		}
		req := cores["a"].StartElection()
		for _, id := range members[1:] {
			cores["a"].HandleVoteResponse(cores[id].HandleVote(req))
		}
	}, func(i int) {
		leader := cores["a"]
		idx, err := leader.Append(consensus.Envelope{Tx: txs[i], SubmittedBy: txs[i].ClientID})
		if err != nil {
			panic(err)
		}
		for leader.CommitIndex() < idx {
			for _, id := range members[1:] {
				leader.HandleAppendResponse(cores[id].HandleAppend(leader.AppendRequestFor(id)))
			}
		}
	})
	m.add("consensus.raft_commit_us", raftUS, "us")

	if err := ctx.Err(); err != nil {
		return err
	}
	// kvstore: each captured block's committed writes as one batch, with
	// and without an fsync per batch.
	batches := make([][]kvstore.BatchOp, len(blocks))
	for i, b := range blocks {
		for _, bw := range commit.WritesFor(b, b.Validation) {
			for _, wi := range bw.Writes {
				batches[i] = append(batches[i], kvstore.BatchOp{Key: []byte(wi.Key), Value: wi.Value, Delete: wi.Delete})
			}
		}
	}
	for _, c := range []struct {
		name string
		sync bool
		n    int
	}{{"kvstore.batch_write_us", false, len(batches)}, {"kvstore.sync_write_us", true, min(len(batches), isoSyncBatches)}} {
		var kv *kvstore.DB
		var kvErr error
		round := 0
		us := perOp(c.n, func() {
			if kv != nil {
				_ = kv.Close()
			}
			round++
			var err error
			kv, err = kvstore.Open(kvstore.Options{Dir: filepath.Join(tmp, fmt.Sprintf("%s-%d", c.name, round)), SyncWrites: c.sync})
			if err != nil && kvErr == nil {
				kvErr = err
			}
		}, func(i int) {
			if kvErr != nil {
				return
			}
			if err := kv.ApplyBatch(batches[i]); err != nil {
				kvErr = err
			}
		})
		if kv != nil {
			_ = kv.Close()
		}
		if kvErr != nil {
			return fmt.Errorf("isolated %s: %w", c.name, kvErr)
		}
		m.add(c.name, us, "us")
	}
	return ctx.Err()
}

// statusRTT times one node.StatusAt round trip (dial included) to the
// first orderer. It runs right after boot, while the chain is empty: an
// orderer's status answer counts the committed transactions of its whole
// chain, and a peer's also fingerprints its whole state.
func statusRTT(s *session) (float64, error) {
	var statusErr error
	us := perOp(50, nil, func(int) {
		if _, err := node.StatusAt(s.c.ordAddrs[0], 2*time.Second); err != nil {
			statusErr = err
		}
	})
	return us, statusErr
}

// seeded returns a fresh in-memory state holding the scenario genesis.
func seeded(genesis []protocol.WriteItem) *statedb.DB {
	db, err := statedb.New(statedb.Options{})
	if err != nil {
		panic(err)
	}
	if err := workload.SeedGenesis(db, genesis); err != nil {
		panic(err)
	}
	return db
}

// snapshotReader serves chaincode reads from a state snapshot, as a peer's
// endorsement path does.
type snapshotReader struct {
	db   *statedb.DB
	snap uint64
}

func (r snapshotReader) Read(key string) ([]byte, seqno.Seq, bool, error) {
	vv, ok, err := r.db.GetAt(key, r.snap)
	if err != nil || !ok {
		return nil, seqno.Seq{}, false, err
	}
	return vv.Value, vv.Version, true, nil
}

func (r snapshotReader) ReadRange(start, end string) ([]string, error) {
	return r.db.KeysInRange(start, end, r.snap), nil
}
