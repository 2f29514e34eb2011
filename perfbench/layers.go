package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// layerNames are the layers CPU time is charged to: the repository's
// packages grouped as in packageLayers, "runtime" for samples with no
// repository frame, and "other" for repository frames no layer claims
// (the benchmark's own code).
var layerNames = []string{
	"sim", "hw", "lib", "projects", "experiments",
	"serial", "mem", "pcie", "host",
	"core", "workload", "pkt",
	"sweep", "fleet", "shard", "resultstore",
	"runtime", "other",
}

// modulePath is the import path of the module under test.
const modulePath = "repro"

// packageLayers maps import-path prefixes of the module to layers; the
// longest matching prefix wins. The front ends (the root benchmark
// package, cmd/ and examples/) drive experiments and never run inside
// the benchmark.
var packageLayers = map[string]string{
	"repro":                              "experiments",
	"repro/cmd":                          "experiments",
	"repro/examples":                     "experiments",
	"repro/internal/experiments":         "experiments",
	"repro/internal/sim":                 "sim",
	"repro/internal/core":                "core",
	"repro/internal/serial":              "serial",
	"repro/internal/mem":                 "mem",
	"repro/internal/storage":             "mem",
	"repro/internal/storage/resultstore": "resultstore",
	"repro/internal/pcie":                "pcie",
	"repro/internal/host":                "host",
	"repro/netfpga":                      "core",
	"repro/netfpga/hw":                   "hw",
	"repro/netfpga/lib":                  "lib",
	"repro/netfpga/projects":             "projects",
	"repro/netfpga/workload":             "workload",
	"repro/netfpga/pkt":                  "pkt",
	"repro/netfpga/pcap":                 "pkt",
	"repro/netfpga/sweep":                "sweep",
	"repro/netfpga/sweep/shard":          "shard",
	"repro/netfpga/fleet":                "fleet",
}

// benchPackage is this benchmark's own module: repository frames that
// belong to no layer.
const benchPackage = "repro/perfbench"

// layerOf maps an import path of the module to its layer.
func layerOf(pkg string) string {
	if pkg == benchPackage || strings.HasPrefix(pkg, benchPackage+"/") {
		return "other"
	}
	for p := pkg; ; {
		if l, ok := packageLayers[p]; ok {
			return l
		}
		i := strings.LastIndexByte(p, '/')
		if i < 0 {
			return "other"
		}
		p = p[:i]
	}
}

// funcPackage extracts the import path from a symbol name such as
// "repro/netfpga/sweep/shard.(*Fleet).Run.func3".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// isRepoFunc reports whether a symbol belongs to the module.
func isRepoFunc(fn string) bool {
	pkg := funcPackage(fn)
	return pkg == modulePath || strings.HasPrefix(pkg, modulePath+"/")
}

// attribute charges every CPU sample of the profiles to a layer and
// returns each layer's share of the total.
func attribute(ctx context.Context, profiles []string) (map[string]float64, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("no profiles")
	}
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", append([]string{"tool", "pprof", "-traces"}, profiles...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	byLayer, err := chargeTraces(out)
	if err != nil {
		return nil, err
	}
	var total time.Duration
	for _, d := range byLayer {
		total += d
	}
	if total == 0 {
		return nil, fmt.Errorf("profiles hold no samples")
	}
	shares := make(map[string]float64, len(layerNames))
	for _, l := range layerNames {
		shares[l] = float64(byLayer[l]) / float64(total)
	}
	return shares, nil
}

// chargeTraces parses `go tool pprof -traces` output and charges each
// trace's CPU time to the layer of its innermost repository frame, or
// to "runtime" when the trace has none. Traces are separated by lines
// of dashes; a trace's first line carries its value, then lists frames
// from the innermost outwards.
func chargeTraces(out []byte) (map[string]time.Duration, error) {
	byLayer := map[string]time.Duration{}
	var value time.Duration
	layer := ""
	inTrace := false
	flush := func() {
		if inTrace && value > 0 {
			if layer == "" {
				layer = "runtime"
			}
			byLayer[layer] += value
		}
		value, layer = 0, ""
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inTrace = true
			continue
		}
		fields := strings.Fields(line)
		if !inTrace || len(fields) == 0 {
			continue
		}
		fn := fields[0]
		if value == 0 && len(fields) >= 2 {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof trace value %q: %v", fields[0], err)
			}
			value, fn = d, fields[1]
		}
		if layer == "" && isRepoFunc(fn) {
			layer = layerOf(funcPackage(fn))
		}
	}
	flush()
	return byLayer, sc.Err()
}
