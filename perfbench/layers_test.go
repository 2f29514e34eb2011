package main

import (
	"encoding/binary"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestEveryPackageMapsToALayer walks the module around the benchmark and
// checks that every package is charged to a named layer, never to
// "other" or "runtime".
func TestEveryPackageMapsToALayer(t *testing.T) {
	root := ".."
	pkgs := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			rel, err := filepath.Rel(root, filepath.Dir(path))
			if err != nil {
				return err
			}
			pkgs[filepath.ToSlash(filepath.Join(modulePath, rel))] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("found only %d packages; is the benchmark inside the repository?", len(pkgs))
	}
	for pkg := range pkgs {
		l := layerOf(pkg)
		if l == "other" || l == "runtime" || !slices.Contains(layerNames, l) {
			t.Errorf("package %s maps to layer %q", pkg, l)
		}
	}
	if got := layerOf(benchPackage); got != "other" {
		t.Errorf("the benchmark's own package maps to %q, want other", got)
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/netfpga/sweep/shard.(*Fleet).Run.func3": "repro/netfpga/sweep/shard",
		"repro/internal/sim.(*Sim).Step":               "repro/internal/sim",
		"repro.BenchmarkX":                             "repro",
		"runtime.mallocgc":                             "runtime",
		"encoding/json.(*decodeState).object":          "encoding/json",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
	if isRepoFunc("reprox/a.F") || !isRepoFunc("repro.F") {
		t.Error("isRepoFunc must match the module path exactly")
	}
}

func TestChargeTraces(t *testing.T) {
	out := `File: nfperf
Type: cpu
Duration: 1.5s, Total samples = 60ms (4.00%)
-----------+-------------------------------------------------------
      10ms   runtime.mallocgc
             repro/internal/sim.(*Sim).push
             repro/netfpga/hw.(*Design).Tick
-----------+-------------------------------------------------------
      20ms   repro/netfpga/lib.(*OutputQueues).Tick (inline)
             repro/netfpga/hw.(*Design).Tick
-----------+-------------------------------------------------------
      10ms   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      20ms   encoding/json.Marshal
             repro/perfbench.writeRecord
             repro/netfpga/sweep.jobFor.func2
-----------+-------------------------------------------------------
`
	got, err := chargeTraces([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"sim": 10 * time.Millisecond, "lib": 20 * time.Millisecond,
		"runtime": 10 * time.Millisecond, "other": 20 * time.Millisecond,
	}
	if len(got) != len(want) {
		t.Fatalf("charged %v, want %v", got, want)
	}
	for l, d := range want {
		if got[l] != d {
			t.Errorf("layer %s charged %v, want %v (all: %v)", l, got[l], d, got)
		}
	}
}

func TestFrameCounter(t *testing.T) {
	var wire []byte
	for _, payload := range []string{`{"hello":{}}`, "", `{"cell":{"key":"k"}}`} {
		wire = binary.BigEndian.AppendUint32(wire, uint32(len(payload)))
		wire = append(wire, payload...)
	}
	for _, chunk := range []int{1, 3, 7, len(wire)} {
		var fc frameCounter
		for i := 0; i < len(wire); i += chunk {
			fc.feed(wire[i:min(i+chunk, len(wire))])
		}
		if fc.frames != 3 || fc.bytes != int64(len(wire)) {
			t.Errorf("chunk %d: %d frames, %d bytes; want 3, %d", chunk, fc.frames, fc.bytes, len(wire))
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics and
// workloads this program reports in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
		Why    string   `json:"why"`
	}
	var bj struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s/%s, the program %s/%s/%s",
					kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEndDefs)
	check("per_layer", bj.PerLayer, layerDefs)
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if wl, ok := workloads[w.Name]; !ok || wl.why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json why %q, program why %q", w.Name, w.Why, wl.why)
		}
	}
}
