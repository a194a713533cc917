package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"fabricsharp/internal/node"
	"fabricsharp/internal/protocol"
	"fabricsharp/internal/scenario"
)

// cluster is one booted in-process cluster: every node listens on an
// ephemeral loopback port, and every address any of them bound is kept so
// teardown can prove none still accepts connections.
type cluster struct {
	w         spec
	dir       string
	orderers  []*node.Orderer
	peers     []*node.Peer
	ordAddrs  []string
	peerAddrs []string
	listening []string
}

// startCluster boots the workload's cluster shape. dir holds the Raft and
// peer data directories of a disk-backed workload and is removed by close.
// traceEvents sizes every node's stage ring (0 = the nodes' default).
func startCluster(w spec, dir string, genesis []protocol.WriteItem, traceEvents int) (*cluster, error) {
	c := &cluster{w: w, dir: dir}
	if err := c.start(genesis, traceEvents); err != nil {
		return nil, errors.Join(err, c.close())
	}
	return c, nil
}

func (c *cluster) start(genesis []protocol.WriteItem, traceEvents int) error {
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return err
	}
	if c.w.raft {
		if err := c.startRaftOrderers(genesis, traceEvents); err != nil {
			return err
		}
	} else {
		o, err := node.StartOrderer(node.OrdererConfig{
			Listen:       "127.0.0.1:0",
			System:       system,
			PeerNames:    peerNames,
			BlockSize:    blockSize,
			BlockTimeout: blockTimeout,
			Rescue:       true,
			Genesis:      genesis,
			TraceEvents:  traceEvents,
		})
		if err != nil {
			return err
		}
		c.orderers = append(c.orderers, o)
		c.ordAddrs = append(c.ordAddrs, o.Addr())
		c.listening = append(c.listening, o.Addr())
	}
	for i, name := range peerNames {
		cfg := node.PeerConfig{
			Name:         name,
			Listen:       "127.0.0.1:0",
			OrdererAddrs: c.ordAddrs,
			System:       system,
			PeerNames:    peerNames,
			Genesis:      genesis,
			Rescue:       true,
			TraceEvents:  traceEvents,
		}
		if c.w.raft {
			cfg.DataDir = filepath.Join(c.dir, fmt.Sprintf("peer%d", i))
		}
		p, err := node.StartPeer(cfg)
		if err != nil {
			return err
		}
		c.peers = append(c.peers, p)
		c.peerAddrs = append(c.peerAddrs, p.Addr())
		c.listening = append(c.listening, p.Addr())
	}
	return nil
}

// raftAttempts bounds Raft boots on fresh ports: a port reserved for a
// member can be taken as the local port of an outbound connection before
// the member binds it.
const raftAttempts = 3

// startRaftOrderers boots the Raft ordering cluster, retrying on fresh ports.
func (c *cluster) startRaftOrderers(genesis []protocol.WriteItem, traceEvents int) error {
	var errs []error
	for attempt := 0; attempt < raftAttempts; attempt++ {
		err := c.startRaftMembers(attempt, genesis, traceEvents)
		if err == nil {
			return nil
		}
		progress("raft boot attempt %d failed: %v", attempt+1, err)
		errs = append(errs, err)
		for _, o := range c.orderers {
			_ = o.Close()
		}
		c.orderers, c.ordAddrs, c.listening = nil, nil, nil
	}
	return errors.Join(errs...)
}

// startRaftMembers boots three Raft members, one in-process replica each,
// on pre-reserved ports (membership and redirects must be known before any
// member starts), and waits for a leader.
func (c *cluster) startRaftMembers(attempt int, genesis []protocol.WriteItem, traceEvents int) error {
	const members = 3
	clientAddrs, err := reserveAddrs(members)
	if err != nil {
		return err
	}
	raftAddrs, err := reserveAddrs(members)
	if err != nil {
		return err
	}
	redirects := make(map[string]string, members)
	for i := range raftAddrs {
		redirects[raftAddrs[i]] = clientAddrs[i]
	}
	c.listening = append(c.listening, clientAddrs...)
	c.listening = append(c.listening, raftAddrs...)
	for i := 0; i < members; i++ {
		o, err := node.StartOrderer(node.OrdererConfig{
			Listen:        clientAddrs[i],
			System:        system,
			PeerNames:     peerNames,
			Orderers:      1,
			BlockSize:     blockSize,
			BlockTimeout:  blockTimeout,
			Rescue:        true,
			Genesis:       genesis,
			RaftID:        raftAddrs[i],
			RaftCluster:   raftAddrs,
			RaftRedirects: redirects,
			RaftDir:       filepath.Join(c.dir, fmt.Sprintf("raft%d-%d", attempt, i)),
			TraceEvents:   traceEvents,
		})
		if err != nil {
			return err
		}
		c.orderers = append(c.orderers, o)
		c.ordAddrs = append(c.ordAddrs, o.Addr())
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, o := range c.orderers {
			if o.Raft().IsLeader() {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("perfbench: no Raft leader elected within 10s")
}

// reserveAddrs grabs n distinct ephemeral loopback ports and releases them.
func reserveAddrs(n int) ([]string, error) {
	ls := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range ls {
			_ = l.Close()
		}
	}()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// close stops every node, removes the data directories, and fails if any
// address the cluster listened on still accepts a connection.
func (c *cluster) close() error {
	for _, p := range c.peers {
		_ = p.Close()
	}
	for _, o := range c.orderers {
		_ = o.Close()
	}
	errs := []error{os.RemoveAll(c.dir)}
	for _, addr := range c.listening {
		conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			_ = conn.Close()
			errs = append(errs, fmt.Errorf("perfbench: %s still accepts connections after teardown", addr))
		}
	}
	return errors.Join(errs...)
}

// waitConverged waits until every ordering member has sealed, and every
// peer applied, the highest block any member sealed.
func (c *cluster) waitConverged(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		want := c.ordererHeight()
		ok := true
		for _, o := range c.orderers {
			if got, _ := o.Network().OrdererChain(0).Height(); got < want {
				ok = false
			}
		}
		for _, p := range c.peers {
			if p.State().Height() < want {
				ok = false
			}
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("peers did not reach orderer height %d within %s", want, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// ordererHeight is the highest sealed block across the ordering members.
func (c *cluster) ordererHeight() uint64 {
	var h uint64
	for _, o := range c.orderers {
		if got, ok := o.Network().OrdererChain(0).Height(); ok && got > h {
			h = got
		}
	}
	return h
}

// checkAgreement is the replica part of the correctness gate: no node
// failed, every Raft member and every peer holds the lead orderer's tip
// hash, the peers' state fingerprints are equal, and the scenario's
// invariant holds on every peer's state.
func (c *cluster) checkAgreement(sc scenario.Scenario) []string {
	var problems []string
	for i, o := range c.orderers {
		if err := o.Err(); err != nil {
			problems = append(problems, fmt.Sprintf("orderer %d failed: %v", i, err))
		}
	}
	for i, p := range c.peers {
		if err := p.Err(); err != nil {
			problems = append(problems, fmt.Sprintf("peer%d failed: %v", i, err))
		}
	}
	if err := c.waitConverged(20 * time.Second); err != nil {
		problems = append(problems, err.Error())
	}
	tip := c.orderers[0].Network().OrdererChain(0).TipHash()
	for i, o := range c.orderers[1:] {
		if got := o.Network().OrdererChain(0).TipHash(); !bytes.Equal(got, tip) {
			problems = append(problems, fmt.Sprintf("orderer %d tip %x differs from orderer 0 tip %x", i+1, got, tip))
		}
	}
	var fp string
	for i, p := range c.peers {
		if got := p.Chain().TipHash(); !bytes.Equal(got, tip) {
			problems = append(problems, fmt.Sprintf("peer%d tip %x differs from orderer tip %x", i, got, tip))
		}
		got := p.State().StateFingerprint()
		if i == 0 {
			fp = got
		} else if got != fp {
			problems = append(problems, fmt.Sprintf("peer%d state fingerprint differs from peer0", i))
		}
		if err := sc.CheckInvariant(p.State(), c.w.params); err != nil {
			problems = append(problems, fmt.Sprintf("peer%d invariant: %v", i, err))
		}
	}
	return problems
}
