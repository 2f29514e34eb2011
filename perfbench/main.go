// Command nfperf is the repository's end-to-end benchmark. One run
// executes one workload repeatedly for a fixed time, checks every pass,
// and prints its metrics; the last line of standard output is a JSON
// object {correct, attempted, failed, metrics}.
//
//	bash perfbench/run.sh --workload paper --seed 0 --seconds 10 --trace 0
//
// Workloads (see workloads below and README.md):
//
//	paper    examples/paper.sweep in this process on one executor worker
//	bgheavy  background-heavy hybrid-fidelity reference_switch cells
//	fleet    examples/paper.sweep over two subprocess session workers
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates
// untraced and traced passes and reports the per-layer metrics: spans
// and counters recorded around the calls into each layer, and each
// layer's share of a CPU profile attributed with `go tool pprof
// -traces`. Every knob stays at its `nf-bench sweep` default.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/netfpga/fleet"
	"repro/netfpga/sweep"
)

// workerArg is the first argument that turns this binary into a fleet
// session worker.
const workerArg = "session-worker"

// Inputs of the repository the benchmark reads, relative to its root.
const (
	paperConfig  = "examples/paper.sweep"
	hybridConfig = "examples/hybrid.sweep"
	paperGolden  = "internal/experiments/testdata/golden_sweep.json"
	hybridGolden = "internal/experiments/testdata/golden_hybrid.json"
)

// workload is one named input set.
type workload struct {
	why string
	// golden is the digest file the passes must match (at its seed for
	// every cell, at any seed for cells whose seed the config pins).
	golden string
	run    func(b *bench, env *passEnv) *outcome
	// check, when set, runs once after the measured passes.
	check func(b *bench)
}

var workloads = map[string]workload{
	"paper": {
		why:    "the 103-cell paper sweep in one process on one executor worker: the run users make",
		golden: paperGolden,
		run:    func(b *bench, env *passEnv) *outcome { return b.localPass(env, paperConfig) },
	},
	"bgheavy": {
		why:   "hybrid-fidelity switch cells, 60 or 63 of 64 flows background: the generator, background model and its timers replace serial, mem and pcie work",
		run:   func(b *bench, env *passEnv) *outcome { return b.localPass(env, b.bgConfig) },
		check: (*bench).hybridGolden,
	},
	"fleet": {
		why:    "the paper sweep over 2 subprocess workers on stdio pipes: spawn, session framing, merge",
		golden: paperGolden,
		run:    (*bench).fleetPass,
	},
}

// bgheavyConfig is the bgheavy sweep: the 63-of-64-background, 20 ms
// cell of BenchmarkBackgroundHeavyHybrid, a lower background share, and
// two cell seeds drawn from the workload seed.
func bgheavyConfig(seed uint64) string {
	return fmt.Sprintf(`{
  "name": "bgheavy",
  "scenarios": [{
    "name": "BGH",
    "boards": ["sume"],
    "projects": ["reference_switch"],
    "workloads": [
      {"name": "bg63of64", "flows": 64, "background": 63},
      {"name": "bg60of64", "flows": 64, "background": 60}
    ],
    "seeds": [%d, %d],
    "fidelities": ["hybrid"],
    "window_us": 20000
  }]
}
`, 2*seed+1, 2*seed+2)
}

// bench is one benchmark run.
type bench struct {
	wl   workload
	seed uint64
	ctx  context.Context

	exe      string
	work     string // scratch for this run, removed at exit
	profDir  string
	bgConfig string

	golden    *sweep.Golden
	reference map[string]string // the first pass's digests
	tr        *tracer
	workerSeq atomic.Int64

	samples   []sample
	failures  []string
	attempted int
	failed    int
	workerRSS int64    // KiB
	prof      *os.File // the running CPU profile of a traced block
	profiles  []string
}

// sample is one pass as measured: the raw material of every median,
// kept so host drift shows next to the medians.
type sample struct {
	Pass        int     `json:"pass"`
	Warmup      bool    `json:"warmup,omitempty"`
	Traced      bool    `json:"traced,omitempty"`
	Cells       int     `json:"cells"`
	WallS       float64 `json:"wall_s"`
	SetupS      float64 `json:"setup_s"`
	CPUS        float64 `json:"cpu_s"`
	Allocs      uint64  `json:"allocs"`
	AllocBytes  uint64  `json:"alloc_bytes"`
	WorkerRSSKB int64   `json:"worker_rss_kb,omitempty"`
	Failed      int     `json:"failed"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == workerArg {
		os.Exit(runWorker(os.Args[2:]))
	}
	os.Exit(runBench(os.Args[1:]))
}

func runBench(args []string) int {
	fset := flag.NewFlagSet("nfperf", flag.ContinueOnError)
	name := fset.String("workload", "", "workload: paper, bgheavy or fleet")
	seed := fset.Uint64("seed", 0, "workload seed (0 is the seed the golden digests were made with)")
	seconds := fset.Float64("seconds", 10, "how long to measure")
	trace := fset.Int("trace", 0, "0 reports end-to-end metrics, 1 runs traced and reports per-layer metrics")
	out := fset.String("out", ".bench_build/perfbench", "directory for scratch files and result records")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "nfperf: unknown workload %q (want paper, bgheavy or fleet)\n", *name)
		return 2
	}
	b, err := newBench(wl, *seed, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nfperf: %v\n", err)
		return 1
	}
	defer os.RemoveAll(b.work)

	// The whole run must end well inside three minutes, whatever hangs.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*seconds*float64(time.Second))+100*time.Second)
	defer cancel()
	b.ctx = ctx

	st := hostStamp()
	fmt.Printf("nfperf %s seed=%d seconds=%g trace=%d | nproc=%d GOMAXPROCS=%d %s cpu=%q commit=%s\n",
		*name, *seed, *seconds, *trace, st.NProc, st.GOMAXPROCS, st.GoVersion, st.CPU, st.Commit)

	b.loop(*seconds, *trace == 1)
	rss := selfMaxRSS()
	if b.workerRSS > rss {
		rss = b.workerRSS
	}
	if wl.check != nil {
		wl.check(b)
	}

	var metrics map[string]metric
	if *trace == 1 {
		metrics = b.layerMetrics()
	} else {
		metrics = b.endToEnd(rss)
	}
	correct := b.failed == 0
	for _, f := range b.failures {
		fmt.Fprintln(os.Stderr, "nfperf: FAIL", f)
	}
	rec := record{
		Stamp: st, Workload: *name, Why: wl.why, Seed: *seed, Seconds: *seconds, Trace: *trace,
		Correct: correct, Attempted: b.attempted, Failed: b.failed, Failures: b.failures,
		Samples: b.samples, Metrics: metrics,
	}
	if b.tr != nil {
		rec.Spans = b.tr.spans
	}
	if path, err := writeRecord(*out, rec); err != nil {
		fmt.Fprintf(os.Stderr, "nfperf: writing result record: %v\n", err)
	} else {
		fmt.Printf("result record: %s\n", path)
	}
	line, err := json.Marshal(result{Correct: correct, Attempted: b.attempted, Failed: b.failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "nfperf: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

func newBench(wl workload, seed uint64, out string) (*bench, error) {
	for _, p := range []string{paperConfig, hybridConfig, paperGolden, hybridGolden} {
		if _, err := os.Stat(p); err != nil {
			return nil, fmt.Errorf("run from the repository root: %w", err)
		}
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	work, err := filepath.Abs(filepath.Join(out, "work", fmt.Sprint(os.Getpid())))
	if err != nil {
		return nil, err
	}
	b := &bench{wl: wl, seed: seed, exe: exe, work: work,
		profDir: filepath.Join(work, "prof"), bgConfig: filepath.Join(work, "bgheavy.sweep")}
	if err := os.MkdirAll(b.profDir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(b.bgConfig, []byte(bgheavyConfig(seed)), 0o644); err != nil {
		return nil, err
	}
	if wl.golden != "" {
		if b.golden, err = sweep.ReadGolden(wl.golden); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// loop runs one warm-up pass and then measured passes until seconds
// have passed. A traced run alternates blocks of at least a second of
// untraced and of traced passes, so host drift hits both halves of the
// tracing-overhead ratio alike; the benchmark process is profiled for
// the length of each traced block.
func (b *bench) loop(seconds float64, traced bool) {
	if traced {
		b.tr = newTracer("coord")
	}
	b.pass(0, true, false)
	start, block := time.Now(), time.Now()
	tracing := false
	var nu, nt int
	for i := 1; b.ctx.Err() == nil; i++ {
		if traced && time.Since(block) >= time.Second {
			if tracing = !tracing; tracing {
				tracing = b.startProfile(i)
			} else {
				b.stopProfile()
			}
			block = time.Now()
		}
		b.pass(i, false, tracing)
		if tracing {
			nt++
		} else {
			nu++
		}
		enough := nu >= 3 && (!traced || nt >= 2)
		if b.failed > 0 || (enough && time.Since(start).Seconds() >= seconds) {
			break
		}
	}
	if tracing {
		b.stopProfile()
	}
}

// startProfile starts a CPU profile of this process for the traced
// block beginning at pass i.
func (b *bench) startProfile(i int) bool {
	path := filepath.Join(b.profDir, fmt.Sprintf("block%d-coord.pprof", i))
	f, err := os.Create(path)
	if err == nil {
		if err = pprof.StartCPUProfile(f); err != nil {
			f.Close()
		}
	}
	if err != nil {
		b.fail(1, fmt.Sprintf("pass %d: cpu profile: %v", i, err))
		return false
	}
	b.prof = f
	b.profiles = append(b.profiles, path)
	return true
}

func (b *bench) stopProfile() {
	pprof.StopCPUProfile()
	if err := b.prof.Close(); err != nil {
		b.fail(1, "cpu profile: "+err.Error())
	}
}

// pass runs, measures and checks one pass.
func (b *bench) pass(i int, warm, traced bool) {
	env := &passEnv{index: i, dir: filepath.Join(b.work, fmt.Sprintf("pass-%d", i))}
	if traced {
		env.tr = b.tr
	}
	// Each pass starts from a collected heap, as a fresh process would.
	runtime.GC()
	ru0, rt0 := selfCPU(), readRuntime()
	env.start = time.Now()
	env.root = env.tr.begin(fmt.Sprintf("pass %d", i), 0)
	o := b.wl.run(b, env)
	wall := time.Since(env.start)
	env.tr.end(env.root)
	rt1, ru1 := readRuntime(), selfCPU()

	s := sample{Pass: i, Warmup: warm, Traced: traced, Cells: o.cells,
		WallS: wall.Seconds(), SetupS: o.setup.Seconds(),
		Allocs: rt1.Allocs - rt0.Allocs, AllocBytes: rt1.AllocB - rt0.AllocB}
	cpu := ru1 - ru0
	for _, p := range o.procs {
		c, rss := p.usage()
		cpu += c
		if rss > s.WorkerRSSKB {
			s.WorkerRSSKB = rss
		}
	}
	s.CPUS = cpu.Seconds()
	if s.WorkerRSSKB > b.workerRSS {
		b.workerRSS = s.WorkerRSSKB
	}

	bad := b.check(o)
	s.Failed = len(bad) + o.requeued
	b.attempted += max(o.cells, 1)
	b.fail(s.Failed, bad...)
	if traced {
		b.collect(env, o, ru1-ru0, rt1.sub(rt0))
	}
	os.RemoveAll(env.dir)
	b.samples = append(b.samples, s)
	tag := ""
	switch {
	case warm:
		tag = " (warm-up)"
	case traced:
		tag = " (traced)"
	}
	fmt.Printf("pass %d%s: %d cells in %.4fs, setup %.5fs, cpu %.4fs, %d allocs, %d alloc bytes, worker rss %d KiB, %d failed\n",
		i, tag, s.Cells, s.WallS, s.SetupS, s.CPUS, s.Allocs, s.AllocBytes, s.WorkerRSSKB, s.Failed)
}

func (b *bench) fail(n int, msgs ...string) {
	b.failed += n
	b.failures = append(b.failures, msgs...)
}

// check is the correctness gate of one pass; every returned line is a
// failed attempt.
func (b *bench) check(o *outcome) []string {
	var bad []string
	bad = append(bad, o.problems...)
	if o.err != nil {
		bad = append(bad, o.err.Error())
	}
	rs := o.rs
	if rs == nil {
		if len(bad) == 0 {
			bad = append(bad, "pass produced no results")
		}
		return bad
	}
	for _, cr := range rs.Failed() {
		bad = append(bad, fmt.Sprintf("cell %s failed: %s", cr.Cell.Key, cr.Err))
	}
	if g := b.golden; g != nil {
		if b.seed == g.Seed {
			bad = append(bad, sweep.DiffGolden(g, rs, false)...)
		} else {
			// Cells whose seed the config pins do not depend on the
			// workload seed, so the golden holds for them at every seed.
			for _, cr := range rs.Cells {
				if want, ok := g.Cells[cr.Cell.Key]; cr.Cell.Seed != 0 && (!ok || want.Digest != cr.Digest) {
					bad = append(bad, fmt.Sprintf("pinned-seed cell %s: digest %s, golden %s", cr.Cell.Key, cr.Digest, want.Digest))
				}
			}
		}
	}
	digests := rs.Digests()
	if b.reference == nil {
		b.reference = digests
	} else {
		bad = append(bad, diffDigests("vs first pass", b.reference, digests)...)
	}
	bad = append(bad, checkBackground(rs)...)
	stored, err := o.st.RunDigests(o.runID)
	if err != nil {
		bad = append(bad, "store read-back: "+err.Error())
	} else {
		bad = append(bad, diffDigests("store read-back", digests, stored)...)
	}
	return bad
}

func diffDigests(label string, want, got map[string]string) []string {
	var bad []string
	for k, d := range want {
		if got[k] != d {
			bad = append(bad, fmt.Sprintf("%s: cell %s digest %q, want %q", label, k, got[k], d))
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			bad = append(bad, fmt.Sprintf("%s: unexpected cell %s", label, k))
		}
	}
	return bad
}

// checkBackground verifies the background model's conservation law on
// every hybrid cell: offered = delivered + dropped, for frames and for
// bytes.
func checkBackground(rs *sweep.Results) []string {
	var bad []string
	for _, cr := range rs.Cells {
		v := cr.Values
		if _, ok := v["bg_offered_frames"]; !ok {
			continue
		}
		for _, unit := range []string{"frames", "bytes"} {
			off, del, drp := v["bg_offered_"+unit], v["bg_delivered_"+unit], v["bg_dropped_"+unit]
			if off != del+drp {
				bad = append(bad, fmt.Sprintf("cell %s: bg_offered_%s %v != delivered %v + dropped %v", cr.Cell.Key, unit, off, del, drp))
			}
		}
	}
	return bad
}

// hybridGolden runs examples/hybrid.sweep once against its golden
// digests; it is a check, not a measured pass.
func (b *bench) hybridGolden() {
	fail := func(err error) { b.fail(1, "hybrid golden: "+err.Error()) }
	cfg, err := sweep.LoadConfig(hybridConfig)
	if err != nil {
		fail(err)
		return
	}
	groups, err := experiments.GroupsForConfig(cfg)
	if err != nil {
		fail(err)
		return
	}
	g, err := sweep.ReadGolden(hybridGolden)
	if err != nil {
		fail(err)
		return
	}
	plan, err := sweep.PlanGroups(groups, "", g.Seed)
	if err != nil {
		fail(err)
		return
	}
	ch, rs, err := plan.Execute(b.ctx, &fleet.Runner{Workers: 1, BaseSeed: g.Seed, Segment: true})
	if err != nil {
		fail(err)
		return
	}
	for range ch {
	}
	b.attempted += len(rs.Cells)
	bad := append(sweep.DiffGolden(g, rs, false), checkBackground(rs)...)
	for _, cr := range rs.Failed() {
		bad = append(bad, fmt.Sprintf("cell %s failed: %s", cr.Cell.Key, cr.Err))
	}
	b.fail(len(bad), bad...)
	fmt.Printf("hybrid golden: %d cells, %d failed\n", len(rs.Cells), len(bad))
}

func (b *bench) nextWorkerID() int64 { return b.workerSeq.Add(1) }

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfMaxRSS is this process's peak resident set in KiB.
func selfMaxRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}

// stamp identifies the host and the code a result was measured on.
type stamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
	Time       string `json:"time"`
}

func hostStamp() stamp {
	s := stamp{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPU: "unknown", Commit: "unknown",
		Time: time.Now().UTC().Format(time.RFC3339)}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				s.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// A checkout without git metadata leaves the commit unknown.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			s.Commit = strings.TrimSpace(string(out))
		}
	}
	return s
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full account of a run, written under the output
// directory: host stamp, every raw pass sample, the metrics, and in a
// traced run every span.
type record struct {
	Stamp     stamp             `json:"stamp"`
	Workload  string            `json:"workload"`
	Why       string            `json:"why"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     int               `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Samples   []sample          `json:"samples"`
	Metrics   map[string]metric `json:"metrics"`
	Spans     []span            `json:"spans,omitempty"`
}

func writeRecord(out string, rec record) (string, error) {
	dir := filepath.Join(out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d-%d.json", rec.Workload, rec.Seed, rec.Trace, time.Now().UnixNano()))
	return path, os.WriteFile(path, data, 0o644)
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
