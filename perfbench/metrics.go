package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions (TestBenchmarkJSONMatches).
type metricDef struct {
	name, unit, better string
}

// endToEndDefs are what a user of `nf-bench sweep` sees, in host time,
// reported by every --trace 0 run.
var endToEndDefs = []metricDef{
	{"cells_per_s", "1/s", "higher"},
	{"cpu_s_per_cell", "s", "lower"},
	{"allocs_per_cell", "count", "lower"},
	{"alloc_kb_per_cell", "KiB", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
	{"ok_ratio", "ratio", "higher"},
}

// layerDefs are the per-layer metrics a --trace 1 run reports: every
// layer's CPU-profile share, then the counters and timings recorded
// around the calls into the layers.
var layerDefs = func() []metricDef {
	var defs []metricDef
	for _, l := range layerNames {
		defs = append(defs, metricDef{l + ".cpu_share", "ratio", "lower"})
	}
	return append(defs,
		metricDef{"sim.events_per_cell", "count", "lower"},
		metricDef{"sim.edges_per_event", "ratio", "higher"},
		metricDef{"sim.events_per_s", "1/s", "higher"},
		metricDef{"hw.module_ticks_per_cell", "count", "lower"},
		metricDef{"experiments.measure_ms_p50", "ms", "lower"},
		metricDef{"experiments.measure_ms_p90", "ms", "lower"},
		metricDef{"serial.frames_per_cell", "count", "lower"},
		metricDef{"core.bg_frames_per_cell", "count", "lower"},
		metricDef{"core.bg_admit_ratio", "ratio", "higher"},
		metricDef{"sweep.plan_ms", "ms", "lower"},
		metricDef{"fleet.efficiency", "ratio", "higher"},
		metricDef{"fleet.build_ms_per_cell", "ms", "lower"},
		metricDef{"shard.spawn_ms", "ms", "lower"},
		metricDef{"shard.frames_per_cell", "count", "lower"},
		metricDef{"shard.bytes_per_cell", "B", "lower"},
		metricDef{"shard.read_wait_share", "ratio", "lower"},
		metricDef{"shard.coord_cpu_s_per_cell", "s", "lower"},
		metricDef{"shard.requeues", "count", "lower"},
		metricDef{"resultstore.append_us_p50", "us", "lower"},
		metricDef{"resultstore.append_us_p90", "us", "lower"},
		metricDef{"resultstore.close_ms", "ms", "lower"},
		metricDef{"resultstore.bytes_per_cell", "B", "lower"},
		metricDef{"runtime.gc_cpu_share", "ratio", "lower"},
		metricDef{"runtime.gc_cycles_per_cell", "count", "lower"},
		metricDef{"trace.overhead", "ratio", "higher"},
	)
}()

// report pairs values with their definitions; a definition without a
// value is a bug in the benchmark.
func report(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			panic("nfperf: no value for metric " + d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out
}

// per divides, reading 0 where the layer did no work.
func per(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cellsPerS is the cells-per-second of each measured pass, traced or
// not.
func (b *bench) cellsPerS(traced bool) []float64 {
	var out []float64
	for _, s := range b.samples {
		if !s.Warmup && s.Traced == traced && s.Cells > 0 {
			out = append(out, float64(s.Cells)/s.WallS)
		}
	}
	return out
}

// endToEnd reports the medians over the measured passes.
func (b *bench) endToEnd(rssKB int64) map[string]metric {
	var cpu, allocs, kb, setup []float64
	for _, s := range b.samples {
		if s.Warmup || s.Traced || s.Cells == 0 {
			continue
		}
		c := float64(s.Cells)
		cpu = append(cpu, s.CPUS/c)
		allocs = append(allocs, float64(s.Allocs)/c)
		kb = append(kb, float64(s.AllocBytes)/1024/c)
		setup = append(setup, s.SetupS)
	}
	ok := 1 - per(float64(b.failed), float64(b.attempted))
	return report(endToEndDefs, map[string]float64{
		"cells_per_s":       median(b.cellsPerS(false)),
		"cpu_s_per_cell":    median(cpu),
		"allocs_per_cell":   median(allocs),
		"alloc_kb_per_cell": median(kb),
		"peak_rss_mb":       float64(rssKB) / 1024,
		"setup_s":           median(setup),
		"ok_ratio":          max(ok, 0),
	})
}

// collect folds one traced pass into the tracer: the coordinator's
// costs, the store's size, each worker's pipes, and each worker's own
// trace file.
func (b *bench) collect(env *passEnv, o *outcome, coordCPU time.Duration, rt runtimeCounters) {
	t := b.tr
	storeBytes := dirBytes(filepath.Join(env.dir, "store"))
	t.note(func(t *tracer) {
		t.passCells += o.cells
		t.runtime.add(rt)
		t.storeBytes += storeBytes
		if len(o.procs) > 0 {
			t.coordCPU += coordCPU
		}
	})
	for _, p := range o.procs {
		p.pipes.mu.Lock()
		first, in, out, wait := p.pipes.first, p.pipes.in, p.pipes.out, p.pipes.readWait
		p.pipes.mu.Unlock()
		if !first.IsZero() {
			t.record("shard.spawn "+p.name, env.root, p.spawned, first)
		}
		t.note(func(t *tracer) {
			if !first.IsZero() {
				t.spawnMS = append(t.spawnMS, ms(first.Sub(p.spawned)))
			}
			t.shardFrames += in.frames + out.frames
			t.shardBytes += in.bytes + out.bytes
			t.readWait += wait
			t.endpointLife += p.reaped.Sub(p.spawned)
		})
		if err := t.adopt(p.trace + ".json"); err != nil {
			b.fail(1, fmt.Sprintf("pass %d: worker %s trace: %v", env.index, p.name, err))
			continue
		}
		b.profiles = append(b.profiles, p.trace+".pprof")
	}
}

// adopt merges a traced worker's trace file.
func (t *tracer) adopt(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var wt workerTrace
	if err := json.Unmarshal(data, &wt); err != nil {
		return err
	}
	t.note(func(t *tracer) {
		t.spans = append(t.spans, wt.Spans...)
		t.cells.add(wt.Cells)
		t.runtime.add(wt.Runtime)
	})
	return nil
}

// layerMetrics reports the traced passes layer by layer.
func (b *bench) layerMetrics() map[string]metric {
	t := b.tr
	cells := float64(t.passCells)
	cc := t.cells
	var measureMS float64
	for _, m := range cc.MeasureMS {
		measureMS += m
	}
	v := map[string]float64{
		"sim.events_per_cell":        per(float64(cc.Events), cells),
		"sim.edges_per_event":        per(float64(cc.Edges), float64(cc.Events)),
		"sim.events_per_s":           per(float64(cc.Events), measureMS/1000),
		"hw.module_ticks_per_cell":   per(float64(cc.ModuleTicks), cells),
		"experiments.measure_ms_p50": percentile(cc.MeasureMS, 50),
		"experiments.measure_ms_p90": percentile(cc.MeasureMS, 90),
		"serial.frames_per_cell":     per(float64(cc.SerialFrames), cells),
		"core.bg_frames_per_cell":    per(float64(cc.BgOffered), cells),
		"core.bg_admit_ratio":        per(float64(cc.BgDelivered), float64(cc.BgOffered)),
		"sweep.plan_ms":              median(t.planMS),
		"fleet.efficiency":           median(t.efficiency),
		"fleet.build_ms_per_cell":    per(t.busyMS-measureMS, cells),
		"shard.spawn_ms":             median(t.spawnMS),
		"shard.frames_per_cell":      per(float64(t.shardFrames), cells),
		"shard.bytes_per_cell":       per(float64(t.shardBytes), cells),
		"shard.read_wait_share":      per(float64(t.readWait), float64(t.endpointLife)),
		"shard.coord_cpu_s_per_cell": per(t.coordCPU.Seconds(), cells),
		"shard.requeues":             float64(t.requeues),
		"resultstore.append_us_p50":  percentile(t.appendUS, 50),
		"resultstore.append_us_p90":  percentile(t.appendUS, 90),
		"resultstore.close_ms":       median(t.closeMS),
		"resultstore.bytes_per_cell": per(float64(t.storeBytes), cells),
		"runtime.gc_cpu_share":       per(t.runtime.GCCPUS, t.runtime.CPUS),
		"runtime.gc_cycles_per_cell": per(float64(t.runtime.GCCycles), cells),
		"trace.overhead":             per(median(b.cellsPerS(true)), median(b.cellsPerS(false))),
	}
	shares, err := attribute(b.ctx, b.profiles)
	if err != nil {
		b.fail(1, "layer attribution: "+err.Error())
	}
	for _, l := range layerNames {
		v[l+".cpu_share"] = shares[l]
	}
	for _, l := range layerNames {
		fmt.Printf("layer %-12s %6.2f%% of CPU samples\n", l, 100*shares[l])
	}
	return report(layerDefs, v)
}
