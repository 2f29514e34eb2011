package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/netfpga/fleet"
	"repro/netfpga/sweep"
	"repro/netfpga/workload"
)

// TestMain re-execs the test binary as a stdio session worker when the
// environment asks for it — the same two-OS-process wiring the fleet
// golden tests and cmd/nf-bench use.
func TestMain(m *testing.M) {
	if os.Getenv("NF_SHARD_SESSION") == "1" {
		err := ServeSession(context.Background(), os.Stdin, os.Stdout, testPlan)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// testPlan resolves the test matrix: Config selects a canned spec so
// worker subprocesses need no config files on disk.
func testPlan(req Request) (*sweep.Plan, error) {
	switch req.Config {
	case "matrix":
		return sweep.PlanGroups([]sweep.Group{testGroup()}, req.Filter, req.Seed)
	default:
		return nil, fmt.Errorf("unknown test config %q", req.Config)
	}
}

func testGroup() sweep.Group {
	return sweep.Group{
		Spec: sweep.Spec{
			Name:     "m",
			Projects: []string{"reference_switch", "reference_iotest"},
			Workloads: []sweep.Workload{
				{Name: "imix"},
				{Name: "min", Sizes: []workload.SizeWeight{{Bytes: 60, Weight: 1}}},
			},
			BERs:     []float64{0, 1e-5},
			Seeds:    []uint64{1},
			WindowUS: 40,
		},
		Measure: sweep.GenericMeasure,
	}
}

// fullRun executes the test matrix in-process as the reference.
func fullRun(t *testing.T) *sweep.Results {
	t.Helper()
	rs, err := sweep.RunGroups(context.Background(), fleet.New(2),
		[]sweep.Group{testGroup()}, "")
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// checkMatches asserts the sharded result set is byte-identical to the
// in-process reference, digest for digest, in expansion order.
func checkMatches(t *testing.T, want, got *sweep.Results) {
	t.Helper()
	if len(got.Cells) != len(want.Cells) {
		t.Fatalf("sharded run has %d cells, reference %d", len(got.Cells), len(want.Cells))
	}
	for i := range got.Cells {
		if got.Cells[i].Cell.Key != want.Cells[i].Cell.Key {
			t.Fatalf("cell %d out of order: %s vs %s", i, got.Cells[i].Cell.Key, want.Cells[i].Cell.Key)
		}
		if got.Cells[i].Digest != want.Cells[i].Digest {
			t.Errorf("cell %s digest diverged across the process boundary", got.Cells[i].Cell.Key)
		}
	}
}

// TestWorkerFilterAndSeed: session workers honour filter and seed from
// the Open request — a filtered, reseeded fleet run matches the
// equivalent in-process run.
func TestWorkerFilterAndSeed(t *testing.T) {
	ref, err := sweep.RunGroups(context.Background(),
		&fleet.Runner{Workers: 2, BaseSeed: 99}, []sweep.Group{testGroup()}, "wl=min")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sweep.PlanGroups([]sweep.Group{testGroup()}, "wl=min", 99)
	if err != nil {
		t.Fatal(err)
	}
	f := &Fleet{
		Req:       Request{Config: "matrix", Filter: "wl=min", Seed: 99, Workers: 1},
		Endpoints: pipeFleet(context.Background(), 2),
	}
	rs, _, err := f.Run(context.Background(), plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkMatches(t, ref, rs)
}

// TestPartialShardFailure: a fleet whose only worker dies mid-stream,
// with no fallback, fails with the typed *FleetDownError — while every
// cell the worker delivered before dying still streamed to onCell (the
// partial harvest the store persists).
func TestPartialShardFailure(t *testing.T) {
	const dieAfter = 1 // cells the worker delivers before "crashing"
	inner := PipeWorker(context.Background(), "victim", testPlan)
	delivered := 0
	dying := mitmEndpoint(inner, func(fr SessionFrame) []SessionFrame {
		if fr.Cell != nil {
			if delivered == dieAfter {
				_ = inner.Kill()
				return nil
			}
			delivered++
		}
		return []SessionFrame{fr}
	})
	var streamed []string
	f := &Fleet{Req: Request{Config: "matrix", Workers: 1}, Endpoints: []*Endpoint{dying}}
	rs, _, err := f.Run(context.Background(), sessionPlan(t), func(cr sweep.CellResult) {
		streamed = append(streamed, cr.Cell.Key)
	})
	var fd *FleetDownError
	if !errors.As(err, &fd) {
		t.Fatalf("dead fleet did not fail with *FleetDownError: %v", err)
	}
	if rs != nil {
		t.Fatal("failed run returned results")
	}
	if len(streamed) != dieAfter || fd.Merged != dieAfter || fd.Total <= dieAfter {
		t.Errorf("partial harvest: streamed %d, merged %d of %d, want %d streamed and merged",
			len(streamed), fd.Merged, fd.Total, dieAfter)
	}
}

// TestFrameRoundTrip: the length-prefixed framing carries the worker's
// session envelopes intact, ends with a clean io.EOF between frames, and
// rejects an oversized length prefix before allocating.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := []SessionFrame{
		{Hello: &Hello{Cells: 8, Workers: 2}},
		{Cell: &sweep.CellRecord{Key: "a/b=1", Seed: 7, Digest: "d",
			Values: map[string]float64{"x": 1.5}, Labels: map[string]string{"l": "v"}}},
		{Err: "boom"},
		{Done: &SessionDone{Cells: 1}},
	}
	for _, m := range msgs {
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		var f SessionFrame
		if err := ReadFrame(&buf, &f); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(f, want) {
			t.Fatalf("frame %d: got %+v, want %+v", i, f, want)
		}
	}
	var f SessionFrame
	if err := ReadFrame(&buf, &f); err != io.EOF {
		t.Fatalf("want io.EOF at stream end, got %v", err)
	}
	// A corrupt length prefix must not allocate the moon.
	bad := bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff, 0x00})
	if err := ReadFrame(bad, &f); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized frame accepted: %v", err)
	}
}
