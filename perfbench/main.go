// Command perfbench is the repository benchmark. It boots a real cluster
// inside its own process — orderers and peers from internal/node on
// ephemeral 127.0.0.1 ports, speaking the same TCP wire protocol and commit
// path fabricnode runs — and drives scenario-registry traffic through it in
// two phases: an open-loop phase at a fixed offered rate (latency) and a
// closed-loop phase with a fixed in-flight window (capacity).
//
// Usage (from the repository root, normally through run.py):
//
//	perfbench --workload hot-smallbank --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 the run also records per-transaction
// spans, drains the nodes' stage rings and times each layer in isolation
// on inputs captured from the run, and reports the per-layer metrics.
// A run whose correctness gate fails prints correct=false with no metrics
// and exits 1; an interrupted run prints no result.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// benchVersion is bumped whenever a change to this driver can move its
// numbers; every record carries it.
const benchVersion = "perfbench/1"

// runBudget bounds one invocation; cleanupBudget bounds teardown after the
// run was cancelled, after which the process exits regardless.
const (
	runBudget     = 170 * time.Second
	cleanupBudget = 8 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name ("+strings.Join(workloadNames(), ", ")+")")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measured seconds (split between the two phases)")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 2 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runBudget)
	defer cancel()

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	tmpRoot := filepath.Join(cwd, ".bench_build", "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(tmpRoot, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	host := hostShape(*seed)
	hostLine, _ := json.Marshal(map[string]any{"host": host, "workload": w.name, "trace": *traced})
	fmt.Println(string(hostLine))

	// Watchdog: once the run is cancelled (signal or budget), teardown gets
	// cleanupBudget; past it the process removes its temporary directory
	// and exits, so the kernel closes every socket it still holds.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-done:
			return
		case <-ctx.Done():
		}
		select {
		case <-done:
		case <-time.After(cleanupBudget):
			os.RemoveAll(tmp)
			fmt.Fprintln(os.Stderr, "perfbench: teardown exceeded its budget; exiting")
			os.Exit(3)
		}
	}()

	opts := runOptions{
		workload: w,
		seed:     *seed,
		measured: time.Duration(*seconds) * time.Second,
		traced:   *traced == 1,
		tmp:      tmp,
		traceDir: filepath.Join(cwd, ".bench_build", "traces"),
		calibMS:  host.CalibrationMS,
	}
	res, err := execute(ctx, opts)
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "perfbench: interrupted:", ctx.Err())
		return 130
	}
	var gate *gateError
	if errors.As(err, &gate) {
		fmt.Fprintln(os.Stderr, "perfbench: correctness gate failed:", err)
		out, _ := json.Marshal(result{Correct: false, Attempted: max(res.Attempted, 1), Failed: res.Failed, Metrics: map[string]metric{}})
		fmt.Println(string(out))
		return 1
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// host describes the machine a record was taken on, so records from
// different hosts (or one host drifting) can be told apart.
type host struct {
	GoVersion     string  `json:"go_version"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	NumCPU        int     `json:"nproc"`
	Seed          int64   `json:"seed"`
	Bench         string  `json:"bench_version"`
	CalibrationMS float64 `json:"calibration_ms"`
}

func hostShape(seed int64) host {
	return host{
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		Seed:          seed,
		Bench:         benchVersion,
		CalibrationMS: calibrate(),
	}
}

// calibrate times a fixed pure-Go integer loop (median of five). It does
// not touch the program under test, so a shift in it is host drift, not a
// regression.
func calibrate() float64 {
	samples := make([]float64, 5)
	for i := range samples {
		t0 := time.Now()
		calibSink += calibLoop(20_000_000)
		samples[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	return median(samples)
}

var calibSink uint64

func calibLoop(n int) uint64 {
	x := uint64(88172645463325252)
	var acc uint64
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += x % 1000003
	}
	return acc
}
