package experiments

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"

	"repro/netfpga/sweep"
	"repro/netfpga/sweep/shard"
)

// TestMain lets this test binary double as a fleet worker, so the
// multi-process backend is exercised across REAL OS process boundaries
// with the same plan resolver (GroupsForConfig) `nf-bench` uses.
// Session mode (NF_SHARD_SESSION=1) serves the fleet protocol on stdio,
// the wiring `nf-bench sweep -shards N` spawns; listen mode
// (NF_SHARD_LISTEN=1) serves it over TCP on an ephemeral port announced
// as "LISTEN <addr>" on stdout — the worker shapes
// `nf-bench shard-worker` exposes.
func TestMain(m *testing.M) {
	if os.Getenv("NF_SHARD_SESSION") == "1" {
		err := shard.ServeSession(context.Background(), os.Stdin, os.Stdout, workerPlanForTest)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	if os.Getenv("NF_SHARD_LISTEN") == "1" {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err == nil {
			fmt.Printf("LISTEN %s\n", l.Addr())
			err = shard.ListenAndServe(context.Background(), l, workerPlanForTest, nil)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func workerPlanForTest(req shard.Request) (*sweep.Plan, error) {
	cfg, err := sweep.LoadConfig(req.Config)
	if err != nil {
		return nil, err
	}
	groups, err := GroupsForConfig(cfg)
	if err != nil {
		return nil, err
	}
	return sweep.PlanGroups(groups, req.Filter, req.Seed)
}

// TestExecutorBackendsMatchGolden is the acceptance gate of the
// multi-process backend: every one of the 103 golden sweep digests must
// be byte-identical when a shard.Fleet spreads the sweep over {1, 2, 4}
// subprocess session workers, each running {1, 4} local pool workers.
//
// TestGoldenSweep covers the fixed local pool at workers {1, 4, 8} and
// TestSegmentedDeterministicAcrossWorkersAndBudgets the segmented pool;
// together the three tests close the backend matrix.
func TestExecutorBackendsMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full backend matrix is slow")
	}
	g, err := sweep.ReadGolden(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (generate with TestGoldenSweep -update): %v", err)
	}
	plan, err := sweep.PlanGroups(paperGroups(t), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	configPath := filepath.Join("..", "..", "examples", "paper.sweep")
	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("shards=%d,workers=%d", shards, workers)
			eps := make([]*shard.Endpoint, shards)
			for i := range eps {
				eps[i] = sessionProcSelf(t, fmt.Sprintf("proc:%d", i))
			}
			fl := &shard.Fleet{
				Req:       shard.Request{Config: configPath, Workers: workers},
				Endpoints: eps,
			}
			rs, _, err := fl.Run(context.Background(), plan, nil)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for _, f := range rs.Failed() {
				t.Errorf("%s: cell %s failed: %s", label, f.Cell.Key, f.Err)
			}
			for _, d := range sweep.DiffGolden(g, rs, false) {
				t.Errorf("%s: golden mismatch:\n  %s", label, d)
			}
		}
	}
}
