package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"samrdlb/internal/solver"
	"samrdlb/internal/workload"
)

// tinyWorkloads shrink the benchmark's configurations to run in a
// second or two while keeping each one's data path: shared-memory data,
// structure only, and tcp shards with durable checkpoints.
var tinyWorkloads = []spec{
	{name: "tiny-data", dataset: "ShockPool3D", procs: 2, domain: 16, steps: 4, data: true},
	{name: "tiny-structure", dataset: "ShockPool3D", procs: 4, domain: 16, steps: 4},
	{name: "tiny-wire", dataset: "AMR64", procs: 2, domain: 16, steps: 4, data: true, tcp: true, ckptInterval: 2},
}

// The decorators must not change what the engine computes: a traced
// run reproduces the untraced Result line and interior checksum.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, w := range tinyWorkloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			plain := runOnce(w, 7, false, false, dir)
			traced := runOnce(w, 7, true, false, dir)
			for _, r := range []record{plain, traced} {
				if r.Err != "" {
					t.Fatal(r.Err)
				}
			}
			if plain.Result != traced.Result {
				t.Fatalf("traced Result differs:\n  %s\n  %s", plain.Result, traced.Result)
			}
			if plain.Checksum != traced.Checksum || (w.data && plain.Checksum == "") {
				t.Fatalf("checksums %q vs %q", plain.Checksum, traced.Checksum)
			}
			if w.data && traced.Layers["solver.kernel_calls"] == 0 {
				t.Fatal("traced data run recorded no kernel calls")
			}
			want := 0.0
			if w.ckptInterval > 0 {
				want = float64(w.steps / w.ckptInterval)
			}
			if traced.Layers["ckpt.writes"] != want {
				t.Fatalf("ckpt.writes = %g, want %g", traced.Layers["ckpt.writes"], want)
			}
		})
	}
}

func TestDecoratorsForwardOptionalInterfaces(t *testing.T) {
	tr := newTracer()
	d := wrapDriver(workload.NewAMR64(16, 2, 3), tr)
	inner := workload.NewAMR64(16, 2, 3)
	if d.Name() != inner.Name() || d.Particles() == nil || workload.FlopsPerCell(d) != workload.FlopsPerCell(inner) {
		t.Fatal("driver decorator does not forward Name, Particles or FlopsPerCell")
	}
	for i, k := range d.Kernels() {
		ik := inner.Kernels()[i]
		_, innerFluxed := ik.(solver.FluxedKernel)
		_, fluxed := k.(solver.FluxedKernel)
		if fluxed != innerFluxed || k.Name() != ik.Name() || k.FlopsPerCell() != ik.FlopsPerCell() {
			t.Fatalf("kernel %s: fluxed %v (inner %v), or Name/FlopsPerCell not forwarded", ik.Name(), fluxed, innerFluxed)
		}
	}
}

// A run whose checksum disagrees with the others fails and counts
// against fail_frac; a pin that disagrees with every run fails all.
func TestChecksumMismatchRaisesFailFrac(t *testing.T) {
	w := tinyWorkloads[0]
	dir := t.TempDir()
	recs := []record{runOnce(w, 5, false, false, dir), runOnce(w, 5, false, false, dir)}
	if good, failures := judgeAll(recs, nil); len(failures) != 0 || len(good) != 2 {
		t.Fatalf("clean runs: failures %v", failures)
	}
	recs[1].Checksum = "0000000000000000"
	if _, failures := judgeAll(recs, nil); len(failures) != 1 || !strings.Contains(failures[0], "checksum") {
		t.Fatalf("injected mismatch: failures %v, want one checksum failure", failures)
	}
	wrong := pin{Result: recs[0].Result, Checksum: "ffffffffffffffff"}
	if _, failures := judgeAll(recs, &wrong); len(failures) != 2 {
		t.Fatalf("wrong pin: failures %v, want 2", failures)
	}
	bad := recs[0]
	bad.TransportFallbacks = 1
	if _, failures := judgeAll([]record{bad}, nil); len(failures) != 1 {
		t.Fatal("a phase fallback must fail the run")
	}
}

// run_s and cell_updates_per_s come from the faster half of the
// untraced runs; traced and set-up-only children take no part.
func TestRunTimeIsMeanOfFasterHalf(t *testing.T) {
	var recs []record
	for _, runS := range []float64{5, 2, 9, 4, 3} {
		recs = append(recs, record{RunS: runS, CellUpdates: 600})
	}
	recs = append(recs, record{Traced: true, RunS: 1, CellUpdates: 600}, record{SetupOnly: true, SetupS: 0.5})
	var s summary
	m := s.endToEndMetrics(recs)
	if got := m["run_s"].Value; got != 2.5 {
		t.Errorf("run_s = %v, want 2.5, the mean of the two fastest of five untraced runs", got)
	}
	if got := m["cell_updates_per_s"].Value; got != 240 {
		t.Errorf("cell_updates_per_s = %v, want 240", got)
	}
	if got := (&summary{}).endToEndMetrics(recs[5:])["run_s"].Value; got != 0 {
		t.Errorf("run_s with no untraced run = %v, want 0", got)
	}
}

func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !valid.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q invalid or repeated", d.Name)
		}
		seen[d.Name] = true
	}
	// Every span-derived metric is declared.
	for k := range spanMetrics(nil) {
		if !seen[k] {
			t.Errorf("span metric %q is not declared in perLayer", k)
		}
	}
}

// BENCHMARK.json at the repository root is the benchmark's own output.
func TestBenchmarkJSONIsGenerated(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json is stale: regenerate it with `bash samrbench/run.sh --benchmark-json > BENCHMARK.json`")
	}
}

// Each workload's pins exist, and at layoutSeed, where every workload
// has a samrsim equivalent, they match the first line cmd/samrsim
// prints.
func TestPinsMatchSamrsim(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every full workload through cmd/samrsim")
	}
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	samrsim := filepath.Join(dir, "samrsim")
	build := exec.Command("go", "build", "-o", samrsim, "./cmd/samrsim")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build samrsim: %v\n%s", err, out)
	}
	for _, w := range workloads {
		p, ok := pins.lookup(w.name, layoutSeed)
		if !ok {
			t.Fatalf("%s: no pin for seed %d", w.name, layoutSeed)
		}
		line, err := samrsimLine(samrsim, w, layoutSeed, dir)
		if err != nil {
			t.Fatal(err)
		}
		if line != p.Result {
			t.Errorf("%s: samrsim prints\n  %s\npinned\n  %s", w.name, line, p.Result)
		}
	}
}
