package main

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/storage/resultstore"
	"repro/netfpga/fleet"
	"repro/netfpga/sweep"
	"repro/netfpga/sweep/shard"
	"repro/netfpga/sweep/shard/chaos"
)

// runSweepCmd implements `nf-bench sweep`: expand a scenario-matrix
// config into fleet jobs, execute them — in-process, or on a fleet of
// local and remote worker processes — with streaming progress, persist
// every cell into the results store, and optionally diff the run
// against a golden digest file or a previous stored run.
//
//	nf-bench sweep -config examples/paper.sweep
//	nf-bench sweep -config examples/paper.sweep -filter 'T4 -latency'
//	nf-bench sweep -config examples/paper.sweep -compare testdata/golden_sweep.json
//	nf-bench sweep -config examples/paper.sweep -out golden.json
//	nf-bench sweep -config examples/matrix.sweep -compare-run <run-id>
//	nf-bench sweep -history 'T4/latency/frame=64'
func runSweepCmd(args []string) {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	configPath := fs.String("config", "", "sweep config file (required)")
	filter := fs.String("filter", "", "cell filter: space/comma terms, '!' or '-' prefix excludes")
	workers := fs.Int("workers", 0, "fleet worker count per process (0 = GOMAXPROCS)")
	seed := fs.Uint64("seed", 0, "base seed for per-cell seed derivation")
	segment := fs.String("segment", "auto", "segment scheduler: auto, off, or an events-per-segment budget (cell digests identical in every mode)")
	fidelityFlag := fs.String("fidelity", "full", "execution fidelity override for cells without their own fidelity axis: full (cycle-accurate) or hybrid (analytic background model; digests differ from full by design)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	shards := fs.Int("shards", 1, "N local session worker processes (digests identical)")
	connect := fs.String("connect", "", "comma-separated worker addresses (host:port) running `nf-bench shard-worker -listen`; cells are assigned dynamically and a dead worker's cells requeue onto survivors")
	migrateAfter := fs.Uint64("migrate-after", 0, "force every cell to checkpoint after N executed events and resume on another worker (digests unchanged; the migration determinism gate)")
	workerTimeout := fs.Duration("worker-timeout", 0, "kill a fleet worker silent for this long while owing cells and requeue its cells (0 = never)")
	steal := fs.Bool("steal", false, "utilization-driven migration: when the queue drains and a fleet worker idles, the busiest worker parks a cell for it")
	sched := fs.String("sched", "seeded", "scheduling policy: seeded (weight workers by the latest matching run's persisted utilization; falls back to uniform when none exists) or uniform (digests identical either way)")
	tlsCA := fs.String("tls-ca", "", "CA certificate (PEM) to verify -connect workers against; enables TLS on every dialed worker")
	chaosSeed := fs.Uint64("chaos", 0, "inject deterministic transport faults (drops, delays, duplicates, corruption, truncation, kills, hangs) on every fleet worker, scheduled from this seed; 0 = off, digests are unchanged by any seed")
	resume := fs.String("resume", "", "resume an interrupted sweep: adopt the run's persisted partial cells (digest-verified) and execute only the remainder")
	runIDFlag := fs.String("run-id", "", "run id override (default: UTC timestamp); scripting and CI resume legs need a knowable id")
	reconnect := fs.Bool("reconnect", true, "redial dead TCP workers and respawn dead local worker processes with exponential backoff (fleet mode)")
	breakerFailures := fs.Int("breaker-failures", 0, "quarantine a fleet worker after this many failures inside -breaker-window (0 = 5, negative disables the breaker)")
	breakerWindow := fs.Duration("breaker-window", 0, "circuit-breaker failure-counting window (0 = 1m)")
	breakerCooldown := fs.Duration("breaker-cooldown", 0, "quarantine length before a single probe dial re-admits the worker; a failed probe doubles it (0 = 15s)")
	stallTimeout := fs.Duration("stall-timeout", 0, "fail the run with per-worker forensics when no cell completes fleet-wide for this long (0 = never)")
	fallback := fs.Bool("fallback", true, "when every fleet worker is dead or quarantined, run the remaining cells in-process instead of failing")
	storeDir := fs.String("store", "nf-results", "results store directory")
	noStore := fs.Bool("no-store", false, "skip the results store")
	history := fs.String("history", "", "trend report: a cell's values across stored runs (key, scenario hash, or unique substring), then exit")
	outPath := fs.String("out", "", "write the run's digests as a golden file")
	comparePath := fs.String("compare", "", "diff the run against a golden digest file; nonzero exit on mismatch")
	compareRun := fs.String("compare-run", "", "diff the run against a previous run id in the store")
	quiet := fs.Bool("q", false, "suppress per-cell progress lines")
	fs.Parse(args)

	if *history != "" {
		runHistory(*storeDir, *history)
		return
	}
	// -resume adopts an interrupted run's persisted partial records and
	// can supply config/filter/seed from the interrupted run's meta when
	// the flags were left at their defaults.
	var resumeRecs []resultstore.Record
	if *resume != "" {
		if *noStore {
			fmt.Fprintln(os.Stderr, "nf-bench sweep: -resume needs the results store (-no-store conflicts)")
			os.Exit(2)
		}
		rst, err := resultstore.Open(*storeDir)
		fatal(err)
		runs, err := rst.Runs()
		fatal(err)
		for _, run := range runs {
			if run == *resume {
				if m, _, _, err := rst.ReadRunTolerant(run); err == nil && !m.Partial {
					fmt.Fprintf(os.Stderr, "nf-bench sweep: run %s completed; nothing to resume\n", *resume)
					os.Exit(1)
				}
			}
		}
		parts, err := rst.PartialRuns(*resume)
		fatal(err)
		if len(parts) == 0 {
			fmt.Fprintf(os.Stderr, "nf-bench sweep: no partial runs with prefix %q in %s\n", *resume, *storeDir)
			os.Exit(1)
		}
		for _, part := range parts {
			pm, recs, dropped, err := rst.ReadRunTolerant(part)
			fatal(err)
			if *configPath == "" {
				*configPath = pm.Config
			}
			if *filter == "" {
				*filter = pm.Filter
			}
			if *seed == 0 {
				*seed = pm.Seed
			}
			resumeRecs = append(resumeRecs, recs...)
			if dropped > 0 {
				fmt.Fprintf(os.Stderr, "resume: %s: %d torn trailing line(s) dropped\n", part, dropped)
			}
		}
		fmt.Printf("resume: %d persisted cells from %d partial run(s) of %s\n", len(resumeRecs), len(parts), *resume)
	}
	if *configPath == "" {
		fmt.Fprintln(os.Stderr, "nf-bench sweep: -config is required")
		fs.Usage()
		os.Exit(2)
	}
	if *sched != "seeded" && *sched != "uniform" {
		fmt.Fprintf(os.Stderr, "nf-bench sweep: -sched must be seeded or uniform (got %q)\n", *sched)
		os.Exit(2)
	}
	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "nf-bench sweep: -shards must be >= 1 (got %d)\n", *shards)
		os.Exit(2)
	}
	// Local worker processes or any fleet knob route the run through the
	// session coordinator.
	addrs := splitAddrs(*connect)
	fleetMode := *shards > 1 || len(addrs) > 0 || *migrateAfter > 0 || *steal || *workerTimeout > 0 ||
		*chaosSeed != 0 || *resume != "" || *stallTimeout > 0
	procs := *shards
	if len(addrs) > 0 && procs == 1 {
		procs = 0 // remote workers only unless -shards asks for local ones
	}
	if *chaosSeed != 0 {
		// Chaos without a hang detector would let an injected hang stall
		// the run forever; default the watchdogs rather than demand four
		// flags for one knob.
		if *workerTimeout == 0 {
			*workerTimeout = 20 * time.Second
			fmt.Println("chaos: defaulting -worker-timeout to 20s")
		}
		if *stallTimeout == 0 {
			*stallTimeout = 2 * time.Minute
			fmt.Println("chaos: defaulting -stall-timeout to 2m")
		}
	}

	cfg, err := sweep.LoadConfig(*configPath)
	fatal(err)
	groups, err := experiments.GroupsForConfig(cfg)
	fatal(err)

	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	segOn, segBudget := parseSegment(*segment)
	fid := parseFidelity(*fidelityFlag)
	stopProf := startProfiles(*cpuprofile, *memprofile)
	defer stopProf()

	plan, err := sweep.PlanGroups(groups, *filter, *seed)
	fatal(err)
	total := len(plan.Cells)
	mode := "local"
	if fleetMode {
		mode = fmt.Sprintf("fleet of %d local + %d remote workers", procs, len(addrs))
	}
	fmt.Printf("sweep %q: %d cells, %d workers, base seed %d, %s\n", cfg.Name, total, w, *seed, mode)
	if total == 0 {
		// An empty run must not satisfy a comparison gate: a filter
		// that silently stopped matching would otherwise turn the CI
		// golden gate into a vacuous pass.
		if *comparePath != "" || *compareRun != "" {
			fmt.Fprintln(os.Stderr, "nf-bench sweep: filter matched no cells, nothing to compare")
			os.Exit(1)
		}
		fmt.Println("nothing to do (filter matched no cells)")
		return
	}

	var st *resultstore.Store
	var prev map[string]string
	// Nanosecond granularity: back-to-back sweeps in one second must
	// not collide on the store's exclusive run file.
	runID := time.Now().UTC().Format("20060102-150405.000000000")
	if *runIDFlag != "" {
		runID = *runIDFlag
	}
	if !*noStore {
		st, err = resultstore.Open(*storeDir)
		fatal(err)
		prev = st.LatestDigests()
	}
	meta := resultstore.Meta{
		Run: runID, Name: cfg.Name, Config: *configPath, Filter: *filter,
		Seed: *seed, Workers: w, Stamp: time.Now().UTC().Format(time.RFC3339),
		Sched: *sched, PlanHash: resultstore.PlanHash(plan.Keys()),
		ResumedFrom: *resume,
	}

	// Digest-verify the resumed records against this plan before they
	// count: a record for a cell the plan does not expand, or one whose
	// digest does not reproduce from its content, is re-run instead of
	// trusted. Conflicting persisted records are a determinism bug and
	// fail loudly.
	var completed []sweep.CellRecord
	if len(resumeRecs) > 0 {
		scratch := plan.Merger()
		rejected := 0
		for _, r := range resumeRecs {
			cr := sweep.CellRecord{
				Key: r.Key, Seed: r.Seed, Values: r.Values, Labels: r.Labels,
				SimPS: r.SimPS, Events: r.Events, Err: r.Err, Digest: r.Digest,
			}
			_, dup, err := scratch.Adopt(cr)
			switch {
			case err != nil && errors.Is(err, sweep.ErrDiverged):
				fatal(err)
			case err != nil:
				rejected++
			case dup:
			default:
				completed = append(completed, cr)
			}
		}
		fmt.Printf("resume: %d cells verified, %d rejected, %d left to run\n",
			len(completed), rejected, total-len(completed))
	}

	start := time.Now()
	done := 0
	progress := func(cr sweep.CellResult) {
		done++
		if *quiet {
			return
		}
		fmt.Printf("[%*d/%d] %-52s %s\n", digits(total), done, total, cr.Cell.Key, summarizeCell(cr))
	}

	var rs *sweep.Results
	if fleetMode {
		rs = runFleet(plan, st, meta, fleetConfig{
			req: shard.Request{
				Config: *configPath, Filter: *filter, Seed: *seed,
				Workers: w, Segment: segOn, SegmentBudget: segBudget,
				Fidelity: fid,
			},
			procs: procs, addrs: addrs, migrateAfter: *migrateAfter,
			hangTimeout: *workerTimeout, steal: *steal, quiet: *quiet,
			sched: *sched, tlsCA: *tlsCA, chaosSeed: *chaosSeed,
			reconnect: *reconnect, fallback: *fallback,
			stallTimeout: *stallTimeout,
			breaker: shard.Breaker{
				Failures: *breakerFailures,
				Window:   *breakerWindow,
				Cooldown: *breakerCooldown,
			},
			completed: completed,
		}, progress)
	} else {
		ex := buildExecutor(w, *seed, segOn, segBudget, fid)
		ch, streamed, err := plan.Execute(context.Background(), ex)
		fatal(err)
		for cr := range ch {
			progress(cr)
		}
		rs = streamed
		if st != nil {
			rep := ex.Utilization().Report()
			meta.Util = &rep
			rw, err := st.Begin(meta)
			fatal(err)
			for _, cr := range rs.Cells {
				fatal(rw.Append(storeRecord(cr)))
			}
			fatal(rw.Close())
		}
	}
	wall := time.Since(start)
	fmt.Printf("sweep done: %d cells in %v (%d failed)\n", len(rs.Cells), wall.Round(time.Millisecond), len(rs.Failed()))
	for _, f := range rs.Failed() {
		fmt.Printf("  FAILED %s: %s\n", f.Cell.Key, f.Err)
	}
	if st != nil {
		fmt.Printf("stored run %s in %s (%d cells indexed)\n", runID, *storeDir, len(rs.Cells))
		if len(prev) > 0 {
			reportStoreDiff(prev, rs)
		}
	}

	if *outPath != "" {
		note := fmt.Sprintf("generated by `nf-bench sweep -config %s -seed %d -out`", *configPath, *seed)
		fatal(sweep.WriteGolden(*outPath, sweep.NewGolden(note, *seed, rs)))
		fmt.Printf("wrote golden digests to %s (%d cells)\n", *outPath, len(rs.Cells))
	}

	failed := len(rs.Failed()) > 0
	if *compareRun != "" {
		if st == nil {
			st, err = resultstore.Open(*storeDir)
			fatal(err)
		}
		old, err := st.RunDigests(*compareRun)
		fatal(err)
		newDigests := rs.Digests()
		if *filter != "" {
			// A filtered run compares only the cells that ran; stored
			// cells the filter excluded are not "removed".
			for k := range old {
				if _, ok := newDigests[k]; !ok {
					delete(old, k)
				}
			}
		}
		diffs := resultstore.Diff(old, newDigests)
		failed = printDiffs(fmt.Sprintf("vs run %s", *compareRun), diffs) || failed
	}
	if *comparePath != "" {
		g, err := sweep.ReadGolden(*comparePath)
		fatal(err)
		if g.Seed != *seed {
			fmt.Fprintf(os.Stderr, "nf-bench sweep: golden %s was generated with seed %d, run used %d\n",
				*comparePath, g.Seed, *seed)
			os.Exit(1)
		}
		diffs := sweep.DiffGolden(g, rs, *filter != "")
		failed = printDiffs(fmt.Sprintf("vs golden %s", *comparePath), diffs) || failed
	}
	if failed {
		stopProf()
		os.Exit(1)
	}
}

// workerPlan resolves a session request into the full sweep plan — the
// worker-side twin of the coordinator's planning, sharing one config
// file so both sides always expand identical cells.
func workerPlan(req shard.Request) (*sweep.Plan, error) {
	cfg, err := sweep.LoadConfig(req.Config)
	if err != nil {
		return nil, err
	}
	groups, err := experiments.GroupsForConfig(cfg)
	if err != nil {
		return nil, err
	}
	return sweep.PlanGroups(groups, req.Filter, req.Seed)
}

// splitAddrs parses the -connect list: comma-separated host:port
// entries, empty entries dropped.
func splitAddrs(s string) []string {
	var addrs []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

type fleetConfig struct {
	req          shard.Request
	procs        int
	addrs        []string
	migrateAfter uint64
	hangTimeout  time.Duration
	stallTimeout time.Duration
	steal        bool
	quiet        bool
	sched        string
	tlsCA        string
	chaosSeed    uint64
	reconnect    bool
	fallback     bool
	breaker      shard.Breaker
	completed    []sweep.CellRecord
}

// runFleet executes the plan on the dynamic session coordinator:
// subprocess workers (spawned `nf-bench shard-worker` over stdio),
// dialed TCP workers, or both mixed. Cells stream into one partial run
// as they arrive — a coordinator crash loses nothing already harvested
// — then fold into a complete, verified, indexed run whose digests are
// byte-identical to a single-process sweep regardless of worker deaths,
// requeues, or checkpoint migrations along the way.
func runFleet(plan *sweep.Plan, st *resultstore.Store, meta resultstore.Meta,
	fc fleetConfig, progress func(sweep.CellResult)) *sweep.Results {

	var tlsCfg *tls.Config
	if fc.tlsCA != "" {
		pem, err := os.ReadFile(fc.tlsCA)
		fatal(err)
		pool := x509.NewCertPool()
		if !pool.AppendCertsFromPEM(pem) {
			fatal(fmt.Errorf("no CA certificate found in %s", fc.tlsCA))
		}
		tlsCfg = &tls.Config{RootCAs: pool}
	}

	// Every worker is built as a (name, dial) pair: spawn a local
	// `shard-worker` subprocess or dial a TCP/TLS address. With
	// -reconnect (the default) the pairs become fleet Connectors —
	// redialed with backoff after every death; without it each is
	// dialed once and a death is final. -chaos wraps each dial so every
	// incarnation gets its own deterministic fault stream.
	var conns []*shard.Connector
	var eps []*shard.Endpoint
	nworkers := 0
	addWorker := func(name string, dial func() (*shard.Endpoint, error)) {
		nworkers++
		if fc.chaosSeed != 0 {
			dial = chaos.WrapDial(name, dial, chaos.Default(fc.chaosSeed))
		}
		if fc.reconnect {
			conns = append(conns, &shard.Connector{Name: name, Dial: dial})
			return
		}
		ep, err := dial()
		fatal(err)
		eps = append(eps, ep)
	}
	if fc.procs > 0 {
		exe, err := os.Executable()
		fatal(err)
		for i := 0; i < fc.procs; i++ {
			name := fmt.Sprintf("proc:%d", i)
			addWorker(name, func() (*shard.Endpoint, error) {
				cmd := exec.Command(exe, "shard-worker")
				cmd.Stderr = os.Stderr
				in, err := cmd.StdinPipe()
				if err != nil {
					return nil, err
				}
				out, err := cmd.StdoutPipe()
				if err != nil {
					return nil, err
				}
				if err := cmd.Start(); err != nil {
					return nil, err
				}
				return &shard.Endpoint{
					Name: name, In: in, Out: out,
					Kill: cmd.Process.Kill, Wait: cmd.Wait,
				}, nil
			})
		}
	}
	for _, addr := range fc.addrs {
		addr := addr
		if tlsCfg != nil {
			addWorker("tls:"+addr, func() (*shard.Endpoint, error) { return shard.DialTLS(addr, tlsCfg.Clone()) })
		} else {
			addWorker("tcp:"+addr, func() (*shard.Endpoint, error) { return shard.Dial(addr) })
		}
	}

	// Seeded scheduling: the latest stored run of this exact plan over
	// this exact transport donates its per-worker utilization, which
	// becomes capacity weights for the coordinator. No donor (first
	// run, new topology) means uniform — the seeded path must always
	// degrade to the uniform one, never block on history.
	transport := transportLabel(fc.procs, len(fc.addrs))
	var weights map[string]float64
	if fc.sched == "seeded" && st != nil {
		cap, err := st.LatestCapacity(meta.PlanHash, transport)
		fatal(err)
		if w := fleet.CapacityWeights(cap.WorkerReports()); w != nil {
			weights = w
			meta.SchedFrom = cap.Run
			fmt.Printf("sched: seeded from run %s: %s\n", cap.Run, fleet.FormatWeights(weights))
		} else if !fc.quiet {
			fmt.Println("sched: no prior utilization for this plan+transport, running uniform")
		}
	}

	// The streamed partial run: every adopted cell is on disk before
	// the merge. Resumed cells are written up front — the new partial
	// alone is a complete account of the merged run, whatever happened
	// to the interrupted one's files.
	var rw *resultstore.RunWriter
	partID := meta.Run + "-fleet"
	if st != nil {
		pm := meta
		pm.Run = partID
		pm.Partial = true
		pm.Shard = fmt.Sprintf("fleet/%d", nworkers)
		var err error
		rw, err = st.Begin(pm)
		fatal(err)
		for _, cr := range fc.completed {
			fatal(rw.Append(resultstore.Record{
				Key: cr.Key, Digest: cr.Digest, Seed: cr.Seed,
				Values: cr.Values, Labels: cr.Labels,
				SimPS: cr.SimPS, Events: cr.Events, Err: cr.Err,
			}))
		}
	}

	requeued := 0
	onEvent := func(ev shard.FleetEvent) {
		switch ev.Kind {
		case "death", "hang":
			// Recovery is always worth a line, even under -q: a silent
			// requeue would hide that the run exercised the fault path.
			requeued += ev.Cells
			fmt.Fprintf(os.Stderr, "fleet: worker %s %s (%s), %d cells requeued\n",
				ev.Worker, ev.Kind, ev.Detail, ev.Cells)
		case "quarantine", "fallback":
			// Degradation states likewise: a run that survived on the
			// fallback executor should say so.
			fmt.Fprintf(os.Stderr, "fleet: %s %s (%s)\n", ev.Worker, ev.Kind, ev.Detail)
		default:
			if !fc.quiet {
				fmt.Printf("fleet: %s %s %s\n", ev.Worker, ev.Kind, ev.Detail)
			}
		}
	}

	fl := &shard.Fleet{
		Req:          fc.req,
		Endpoints:    eps,
		Connectors:   conns,
		MigrateAfter: fc.migrateAfter,
		HangTimeout:  fc.hangTimeout,
		StallTimeout: fc.stallTimeout,
		Breaker:      fc.breaker,
		Fallback:     fc.fallback,
		Steal:        fc.steal,
		Weights:      weights,
		Completed:    fc.completed,
		OnEvent:      onEvent,
	}
	rs, util, runErr := fl.Run(context.Background(), plan, func(cr sweep.CellResult) {
		if rw != nil {
			fatal(rw.Append(storeRecord(cr)))
		}
		progress(cr)
	})
	if rw != nil {
		fatal(rw.Close())
	}
	if runErr != nil {
		if st != nil {
			fmt.Fprintf(os.Stderr, "nf-bench sweep: partial fleet run preserved in %s: %s\n",
				st.Dir(), partID)
		}
		fatal(runErr)
	}
	if st != nil {
		meta.Transport = transport
		meta.Requeued = requeued
		meta.Util = &util
		meta.WorkerUtil = workerUtilMeta(fl.Reports, weights)
		n, err := st.MergeRuns(meta, []string{partID}, plan.Keys())
		fatal(err)
		fmt.Printf("merged fleet run into %s (%d cells, %d requeued)\n", meta.Run, n, requeued)
	}
	fmt.Printf("fleet utilization: %d pool workers over %d endpoints, %d cells, %.0f%% efficient (busy %.0fms / wall %.0fms)\n",
		util.Workers, nworkers, util.Jobs, 100*util.Efficiency, util.BusyMS, util.WallMS)
	return rs
}

// workerUtilMeta flattens the coordinator's per-worker reports into
// the persisted meta form (sorted by worker name), recording the
// capacity weight each worker was scheduled at (1.0 under uniform).
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

// transportLabel names how a fleet reached its workers for the run
// metadata.
func transportLabel(procs, tcps int) string {
	switch {
	case procs > 0 && tcps > 0:
		return "proc+tcp"
	case tcps > 0:
		return "tcp"
	default:
		return "proc"
	}
}

// storeRecord flattens a cell result into a store record.
func storeRecord(cr sweep.CellResult) resultstore.Record {
	return resultstore.Record{
		Key: cr.Cell.Key, Digest: cr.Digest, Seed: cr.Seed,
		Values: cr.Values, Labels: cr.Labels,
		SimPS: int64(cr.SimTime), Events: cr.Events, Err: cr.Err,
	}
}

// runHistory implements -history: resolve the query to one cell via
// the store's index (exact key or hash wins outright, a substring must
// be unique — ambiguity errors out listing every candidate) and report
// the cell's digest and values across every stored (non-partial) run,
// oldest first — the store-backed trend view of a scenario.
func runHistory(storeDir, query string) {
	st, err := resultstore.Open(storeDir)
	fatal(err)
	entry, err := st.Resolve(query)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nf-bench sweep: %v\n", err)
		os.Exit(1)
	}
	key := entry.Key
	runs, err := st.Runs()
	fatal(err)

	type hit struct {
		run string
		rec resultstore.Record
	}
	var hits []hit
	for _, run := range runs {
		m, recs, err := st.ReadRun(run)
		fatal(err)
		if m.Partial {
			continue // shard fragments; their cells live in the merged run
		}
		for _, rec := range recs {
			if rec.Key == key {
				hits = append(hits, hit{run: run, rec: rec})
			}
		}
	}
	if len(hits) == 0 {
		fmt.Fprintf(os.Stderr, "nf-bench sweep: no stored cell matches %q in %s\n", query, storeDir)
		os.Exit(1)
	}
	fmt.Printf("history of %s (hash %s): %d stored runs\n\n", key, resultstore.Hash(key), len(hits))
	// Column set is the union across runs: a measure that renamed its
	// values mid-history still shows every metric that ever existed.
	union := map[string]float64{}
	for _, h := range hits {
		for vk := range h.rec.Values {
			union[vk] = 0
		}
	}
	valKeys := sweep.SortKeys(union)
	// bench-<stamp> rows persist frames + wall_ns; derive the frames/sec
	// headline column so the trend view reads like the benchgate report
	// instead of raw nanoseconds.
	_, haveFrames := union["frames"]
	_, haveWall := union["wall_ns"]
	deriveFPS := haveFrames && haveWall
	header := []string{"run", "digest", "Δ"}
	header = append(header, valKeys...)
	if deriveFPS {
		header = append(header, "frames/sec")
	}
	rows := [][]string{header}
	changes := 0
	prevDigest := ""
	var firstFPS, lastFPS float64
	fpsRuns := 0
	for _, h := range hits {
		marker := ""
		if prevDigest != "" && h.rec.Digest != prevDigest {
			marker = "*"
			changes++
		}
		prevDigest = h.rec.Digest
		row := []string{h.run, h.rec.Digest, marker}
		for _, vk := range valKeys {
			if v, ok := h.rec.Values[vk]; ok {
				row = append(row, fmt.Sprintf("%.6g", v))
			} else {
				row = append(row, "-")
			}
		}
		if deriveFPS {
			fr, okF := h.rec.Values["frames"]
			wall, okW := h.rec.Values["wall_ns"]
			if okF && okW && wall > 0 && fr > 0 {
				fps := fr / (wall / 1e9)
				row = append(row, fmt.Sprintf("%.4g", fps))
				if fpsRuns == 0 {
					firstFPS = fps
				}
				lastFPS = fps
				fpsRuns++
			} else {
				row = append(row, "-")
			}
		}
		if h.rec.Err != "" {
			row[len(row)-1] += " ERR:" + h.rec.Err
		}
		rows = append(rows, row)
	}
	printAligned(rows)
	if fpsRuns > 0 {
		fmt.Printf("\nheadline: %.4g frames/sec", lastFPS)
		if fpsRuns > 1 && firstFPS > 0 {
			fmt.Printf(" (%.2fx vs oldest run's %.4g)", lastFPS/firstFPS, firstFPS)
		}
		fmt.Println()
	}
	fmt.Printf("\ndigest changed %d time(s) across %d runs", changes, len(hits))
	if e, ok := st.Index()[resultstore.Hash(key)]; ok {
		fmt.Printf("; latest digest %s (run %s)", e.Digest, e.Run)
	}
	fmt.Println()
}

// printAligned renders rows with per-column padding; row 0 is the
// header.
func printAligned(rows [][]string) {
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		for i, cell := range row {
			if i > 0 {
				fmt.Print("  ")
			}
			fmt.Printf("%-*s", widths[i], cell)
		}
		fmt.Println()
	}
}

// summarizeCell renders one streamed cell's headline for progress
// output: the first few values in sorted key order.
func summarizeCell(cr sweep.CellResult) string {
	if cr.Err != "" {
		return "ERR " + cr.Err
	}
	keys := sweep.SortKeys(cr.Values)
	if len(keys) > 3 {
		keys = keys[:3]
	}
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%.4g", k, cr.Values[k]))
	}
	return strings.Join(parts, " ")
}

// reportStoreDiff summarises how the new run moved relative to the
// store's previous latest digests.
func reportStoreDiff(prev map[string]string, rs *sweep.Results) {
	changed, newCells := 0, 0
	var lines []string
	for _, cr := range rs.Cells {
		old, ok := prev[cr.Cell.Key]
		switch {
		case !ok:
			newCells++
		case old != cr.Digest:
			changed++
			lines = append(lines, "  changed vs previous: "+cr.Cell.Key)
		}
	}
	sort.Strings(lines)
	fmt.Printf("vs previous store state: %d unchanged, %d changed, %d new\n",
		len(rs.Cells)-changed-newCells, changed, newCells)
	for _, l := range lines {
		fmt.Println(l)
	}
}

// printDiffs reports a diff list; returns true when differences exist.
func printDiffs(label string, diffs []string) bool {
	if len(diffs) == 0 {
		fmt.Printf("compare %s: all digests match\n", label)
		return false
	}
	fmt.Printf("compare %s: %d differences\n", label, len(diffs))
	for _, d := range diffs {
		fmt.Println("  " + d)
	}
	return true
}

func digits(n int) int { return len(fmt.Sprint(n)) }

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "nf-bench sweep: %v\n", err)
		os.Exit(1)
	}
}
