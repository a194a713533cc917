package main

import (
	"time"

	"fabricsharp/internal/scenario"
	"fabricsharp/internal/sched"
)

// Cluster shape shared by every workload: fabric# with post-order rescue,
// two peers, and fabricnode's default block size and cut timeout.
const (
	system       = sched.SystemSharp
	blockSize    = 100
	blockTimeout = 100 * time.Millisecond
)

var peerNames = []string{"peer0", "peer1"}

// spec is one benchmark workload: the scenario traffic, the cluster it
// runs on, and the two load constants. The fixed rate and the window are
// constants of the benchmark, never derived from a run's own capacity, so
// every commit is offered the same load.
type spec struct {
	name     string
	scenario string
	params   scenario.Params
	// raft runs three Raft orderers (one in-process replica each, Raft
	// state on disk) and persists the peers to disk; otherwise one
	// standalone orderer with in-memory peers.
	raft bool
	// fixedTPS is the offered rate of the open-loop phase.
	fixedTPS int
	// window is the in-flight bound of the closed-loop phase.
	window int
}

var workloads = []spec{
	{
		name:     "transfer-raft",
		scenario: "msmallbank",
		params:   scenario.Params{Accounts: 100_000},
		raft:     true,
		fixedTPS: 800,
		window:   512,
	},
	{
		name:     "hot-smallbank",
		scenario: "msmallbank",
		params:   scenario.Params{Accounts: 10_000, ReadHot: 0.3, WriteHot: 0.3},
		fixedTPS: 800,
		window:   512,
	},
	{
		name:     "scan-analytics",
		scenario: "analytics",
		params:   scenario.Params{Accounts: 200},
		fixedTPS: 600,
		window:   512,
	},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}
