package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"syscall"

	"repro/internal/experiments"
	"repro/netfpga/sweep"
	"repro/netfpga/sweep/shard"
)

// runWorker serves one fleet session on stdin/stdout with the plan
// resolution `nf-bench shard-worker` uses. With -trace it profiles
// itself, traces its Measure calls, and writes <prefix>.pprof and
// <prefix>.json when the session ends or SIGTERM asks it to stop.
func runWorker(args []string) int {
	fset := flag.NewFlagSet(workerArg, flag.ContinueOnError)
	prefix := fset.String("trace", "", "trace file prefix (empty = untraced)")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	var tr *tracer
	finish := func() error { return nil }
	if *prefix != "" {
		tr = newTracer(filepath.Base(*prefix))
		var err error
		if finish, err = traceWorker(tr, *prefix); err != nil {
			fmt.Fprintf(os.Stderr, "nfperf worker: %v\n", err)
			return 1
		}
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGTERM)
		go func() {
			<-sig
			code := 0
			if err := finish(); err != nil {
				fmt.Fprintf(os.Stderr, "nfperf worker: %v\n", err)
				code = 1
			}
			os.Exit(code)
		}()
	}
	planFor := func(req shard.Request) (*sweep.Plan, error) {
		cfg, err := sweep.LoadConfig(req.Config)
		if err != nil {
			return nil, err
		}
		groups, err := experiments.GroupsForConfig(cfg)
		if err != nil {
			return nil, err
		}
		return sweep.PlanGroups(tr.wrapMeasures(groups), req.Filter, req.Seed)
	}
	err := shard.ServeSession(context.Background(), os.Stdin, os.Stdout, planFor)
	if ferr := finish(); ferr != nil && err == nil {
		err = ferr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "nfperf worker: %v\n", err)
		return 1
	}
	return 0
}

// traceWorker starts the worker's CPU profile and session span and
// returns the idempotent function that stops them and writes the
// worker's trace file.
func traceWorker(tr *tracer, prefix string) (func() error, error) {
	prof, err := os.Create(prefix + ".pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, err
	}
	rt0 := readRuntime()
	session := tr.begin("worker session", 0)
	tr.setMeasureParent(session)
	var once sync.Once
	var ferr error
	return func() error {
		once.Do(func() {
			pprof.StopCPUProfile()
			ferr = prof.Close()
			tr.end(session)
			tr.mu.Lock()
			data, err := json.Marshal(workerTrace{Spans: tr.spans, Cells: tr.cells, Runtime: readRuntime().sub(rt0)})
			tr.mu.Unlock()
			if err == nil {
				err = os.WriteFile(prefix+".json", data, 0o644)
			}
			if ferr == nil {
				ferr = err
			}
		})
		return ferr
	}, nil
}
