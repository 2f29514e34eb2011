package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/storage/resultstore"
	"repro/netfpga/fleet"
	"repro/netfpga/sweep"
	"repro/netfpga/sweep/shard"
)

// fleetWorkers is the number of local subprocess workers in the fleet
// workload; each runs one executor worker.
const fleetWorkers = 2

// passEnv is one pass's private state: a fresh store directory, the
// tracer (nil when untraced) and the root span.
type passEnv struct {
	index int
	dir   string
	start time.Time
	tr    *tracer
	root  int
}

// outcome is what a pass produced, before it is checked.
type outcome struct {
	cells int
	rs    *sweep.Results
	err   error
	setup time.Duration

	st    *resultstore.Store
	runID string

	// Fleet only: the worker incarnations this pass spawned, the
	// health events the coordinator reported, and the cells it requeued.
	procs    []*workerProc
	problems []string
	requeued int
}

// openPlan is the set-up every workload shares: load the config,
// resolve its groups, plan it and open a fresh results store, each in
// its own span.
func (b *bench) openPlan(env *passEnv, config string) (*sweep.Plan, *resultstore.Store, resultstore.Meta, error) {
	var cfg *sweep.Config
	var groups []sweep.Group
	var plan *sweep.Plan
	var st *resultstore.Store
	var meta resultstore.Meta
	_, err := env.tr.timed("sweep.LoadConfig", env.root, func() (err error) {
		cfg, err = sweep.LoadConfig(config)
		return err
	})
	if err != nil {
		return nil, nil, meta, err
	}
	if _, err = env.tr.timed("experiments.GroupsForConfig", env.root, func() (err error) {
		groups, err = experiments.GroupsForConfig(cfg)
		return err
	}); err != nil {
		return nil, nil, meta, err
	}
	groups = env.tr.wrapMeasures(groups)
	d, err := env.tr.timed("sweep.PlanGroups", env.root, func() (err error) {
		plan, err = sweep.PlanGroups(groups, "", b.seed)
		return err
	})
	if err != nil {
		return nil, nil, meta, err
	}
	env.tr.note(func(t *tracer) { t.planMS = append(t.planMS, ms(d)) })
	if _, err = env.tr.timed("resultstore.Open", env.root, func() (err error) {
		st, err = resultstore.Open(filepath.Join(env.dir, "store"))
		if err == nil {
			st.LatestDigests()
		}
		return err
	}); err != nil {
		return nil, nil, meta, err
	}
	meta = resultstore.Meta{
		Run: fmt.Sprintf("pass-%d", env.index), Name: cfg.Name, Config: config,
		Seed: b.seed, Workers: 1, Stamp: time.Now().UTC().Format(time.RFC3339),
		Sched: "seeded", PlanHash: resultstore.PlanHash(plan.Keys()),
	}
	return plan, st, meta, nil
}

// localPass runs a config in this process on one executor worker and
// stores it as `nf-bench sweep -workers 1` does.
func (b *bench) localPass(env *passEnv, config string) *outcome {
	o := &outcome{}
	plan, st, meta, err := b.openPlan(env, config)
	o.setup = time.Since(env.start)
	if err != nil {
		o.err = err
		return o
	}
	o.cells, o.st, o.runID = len(plan.Cells), st, meta.Run

	ex := &fleet.Runner{Workers: 1, BaseSeed: b.seed, Segment: true}
	execID := env.tr.begin("sweep.Plan.Execute", env.root)
	env.tr.setMeasureParent(execID)
	ch, rs, err := plan.Execute(b.ctx, ex)
	if err != nil {
		o.err = err
		return o
	}
	for range ch {
	}
	env.tr.end(execID)
	o.rs = rs
	rep := ex.Utilization().Report()
	env.tr.note(func(t *tracer) {
		t.busyMS += rep.BusyMS
		t.efficiency = append(t.efficiency, rep.Efficiency)
	})
	meta.Util = &rep

	rw, err := st.Begin(meta)
	if err != nil {
		o.err = err
		return o
	}
	for _, cr := range rs.Cells {
		if err := env.tr.appendRecord(rw, storeRecord(cr)); err != nil {
			o.err = err
			return o
		}
	}
	d, err := env.tr.timed("resultstore.Close", env.root, rw.Close)
	env.tr.note(func(t *tracer) { t.closeMS = append(t.closeMS, ms(d)) })
	o.err = err
	return o
}

// fleetPass runs paper.sweep over local subprocess workers driven by
// shard.Fleet on stdio pipes, streaming a partial run and merging it as
// `nf-bench sweep` does in fleet mode.
func (b *bench) fleetPass(env *passEnv) *outcome {
	o := &outcome{}
	plan, st, meta, err := b.openPlan(env, paperConfig)
	if err != nil {
		o.setup = time.Since(env.start)
		o.err = err
		return o
	}
	o.cells, o.st, o.runID = len(plan.Cells), st, meta.Run

	// Seeded scheduling consults the store; a fresh store has no donor
	// run, so every pass schedules uniformly and does the same work.
	const transport = "proc"
	var weights map[string]float64
	var rw *resultstore.RunWriter
	partID := meta.Run + "-fleet"
	_, err = env.tr.timed("resultstore.Begin", env.root, func() error {
		capacity, err := st.LatestCapacity(meta.PlanHash, transport)
		if err != nil {
			return err
		}
		weights = fleet.CapacityWeights(capacity.WorkerReports())
		pm := meta
		pm.Run, pm.Partial, pm.Shard = partID, true, fmt.Sprintf("fleet/%d", fleetWorkers)
		rw, err = st.Begin(pm)
		return err
	})
	execStart := time.Now()
	o.setup = execStart.Sub(env.start)
	if err != nil {
		o.err = err
		return o
	}

	run := env.tr.begin("shard.Fleet.Run", env.root)
	var mu sync.Mutex
	var conns []*shard.Connector
	for i := 0; i < fleetWorkers; i++ {
		name := fmt.Sprintf("proc:%d", i)
		conns = append(conns, &shard.Connector{Name: name, Dial: func() (*shard.Endpoint, error) {
			p, ep, err := b.spawnWorker(env, name)
			if p != nil {
				mu.Lock()
				o.procs = append(o.procs, p)
				mu.Unlock()
			}
			return ep, err
		}})
	}
	fl := &shard.Fleet{
		Req: shard.Request{
			Config: paperConfig, Seed: b.seed, Workers: 1, Segment: true,
		},
		Connectors: conns,
		Fallback:   true,
		Weights:    weights,
		OnEvent: func(ev shard.FleetEvent) {
			if ev.Kind == "hello" || ev.Kind == "done" {
				return
			}
			// Anything else is a degraded fleet: a death, hang, redial,
			// quarantine or in-process fallback is a failed attempt, and
			// so is every cell it requeued; never a slower healthy pass.
			mu.Lock()
			defer mu.Unlock()
			if ev.Kind == "death" || ev.Kind == "hang" {
				o.requeued += ev.Cells
			}
			o.problems = append(o.problems, fmt.Sprintf("%s %s (%s), %d cells", ev.Worker, ev.Kind, ev.Detail, ev.Cells))
		},
	}
	rs, util, runErr := fl.Run(b.ctx, plan, func(cr sweep.CellResult) {
		if err := env.tr.appendRecord(rw, storeRecord(cr)); err != nil {
			mu.Lock()
			defer mu.Unlock()
			o.problems = append(o.problems, "store append: "+err.Error())
		}
	})
	env.tr.end(run)
	mu.Lock()
	procs := o.procs
	mu.Unlock()
	o.reap(procs)
	closeD, closeErr := env.tr.timed("resultstore.Close", env.root, rw.Close)
	if runErr != nil {
		o.err = runErr
		return o
	}
	if closeErr != nil {
		o.err = closeErr
		return o
	}
	o.rs = rs
	for _, r := range fl.Reports {
		if r.Name == "fallback" {
			o.problems = append(o.problems, fmt.Sprintf("fallback ran %d cells in-process", r.Cells))
		}
	}
	meta.Transport, meta.Requeued, meta.Util = transport, o.requeued, &util
	meta.WorkerUtil = workerUtilMeta(fl.Reports, weights)
	mergeD, err := env.tr.timed("resultstore.MergeRuns", env.root, func() error {
		_, err := st.MergeRuns(meta, []string{partID}, plan.Keys())
		return err
	})
	o.err = err

	var up time.Time
	for _, p := range o.procs {
		if f := p.pipes.firstFrame(); f.After(up) {
			up = f
		}
	}
	if up.After(execStart) {
		o.setup += up.Sub(execStart)
	}
	env.tr.note(func(t *tracer) {
		t.closeMS = append(t.closeMS, ms(closeD+mergeD))
		t.busyMS += util.BusyMS
		t.efficiency = append(t.efficiency, util.Efficiency)
		t.requeues += o.requeued
	})
	return o
}

// workerProc is one spawned session-worker incarnation.
type workerProc struct {
	name    string
	cmd     *exec.Cmd
	pipes   *pipeStats
	spawned time.Time
	trace   string // trace file prefix ("" when untraced)

	waitOnce sync.Once
	waitErr  error
	reaped   time.Time
}

func (p *workerProc) wait() error {
	p.waitOnce.Do(func() {
		p.waitErr = p.cmd.Wait()
		p.reaped = time.Now()
	})
	return p.waitErr
}

// usage returns the reaped worker's CPU time and peak RSS in KiB.
func (p *workerProc) usage() (time.Duration, int64) {
	ps := p.cmd.ProcessState
	if ps == nil {
		return 0, 0
	}
	var rss int64
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		rss = ru.Maxrss
	}
	return ps.UserTime() + ps.SystemTime(), rss
}

// spawnWorker starts this binary as a session worker on stdio pipes.
// A traced worker profiles itself and writes its counters when it is
// told to stop with SIGTERM, so its Kill asks instead of forcing.
func (b *bench) spawnWorker(env *passEnv, name string) (*workerProc, *shard.Endpoint, error) {
	p := &workerProc{name: name, pipes: &pipeStats{counting: env.tr != nil}}
	args := []string{workerArg}
	if env.tr != nil {
		p.trace = filepath.Join(b.profDir, fmt.Sprintf("pass%d-w%d", env.index, b.nextWorkerID()))
		args = append(args, "-trace", p.trace)
	}
	cmd := exec.Command(b.exe, args...)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, err
	}
	p.spawned = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, nil, err
	}
	p.cmd = cmd
	kill := cmd.Process.Kill
	if env.tr != nil {
		kill = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	}
	ep := &shard.Endpoint{
		Name: name,
		In:   statWriter{w: in, s: p.pipes},
		Out:  statReader{r: out, s: p.pipes},
		Kill: kill,
		Wait: p.wait,
	}
	return p, ep, nil
}

// reap makes sure the worker incarnations have exited:
// the fleet waits for live workers itself and reaps dead ones in the
// background.
func (o *outcome) reap(procs []*workerProc) {
	for _, p := range procs {
		done := make(chan struct{})
		go func() {
			_ = p.wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			_ = p.cmd.Process.Kill()
			<-done
		}
	}
}

// workerUtilMeta flattens per-worker reports into the persisted meta
// form, sorted by worker name, as `nf-bench sweep` stores them.
func workerUtilMeta(reports []shard.WorkerReport, weights map[string]float64) []resultstore.WorkerUtil {
	out := make([]resultstore.WorkerUtil, 0, len(reports))
	for _, r := range reports {
		w := 1.0
		if v, ok := weights[r.Name]; ok {
			w = v
		}
		out = append(out, resultstore.WorkerUtil{Name: r.Name, Cells: r.Cells, Weight: w, Util: r.Util})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// storeRecord flattens a cell result into a store record.
func storeRecord(cr sweep.CellResult) resultstore.Record {
	return resultstore.Record{
		Key: cr.Cell.Key, Digest: cr.Digest, Seed: cr.Seed,
		Values: cr.Values, Labels: cr.Labels,
		SimPS: int64(cr.SimTime), Events: cr.Events, Err: cr.Err,
	}
}
