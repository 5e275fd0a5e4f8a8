// Command samrbench is the repository's whole-run benchmark. It builds
// each workload exactly as cmd/samrsim would, times engine.New and
// Runner.Run untraced, and attributes a separate traced run's time to
// layers through decorators on the interfaces the engine calls. Every
// run happens in its own child process, so peak memory and heap state
// never carry over from one run to the next. See README.md.
//
// Usage, from the repository root:
//
//	bash samrbench/run.sh --workload shockpool-data --seed 1 --seconds 20 --trace 0
//	bash samrbench/run.sh --workload all --seed 1
//	bash samrbench/run.sh --pin 0-15            # regenerate samrbench/pins.json
//	bash samrbench/run.sh --benchmark-json > BENCHMARK.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runSeconds is the measuring time BENCHMARK.json asks for.
const runSeconds = 30

// setupChildren is the number of set-up-only child processes a
// measurement starts before its runs, so setup_s has a median over
// several samples even when only a few runs fit.
const setupChildren = 6

// hardLimit bounds one measurement, children included, so the command
// ends within its 180-second allowance.
const hardLimit = 170 * time.Second

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		wlName    = flag.String("workload", "", "workload to measure (shockpool-data | shockpool-structure | amr64-wire | all)")
		seed      = flag.Int64("seed", 1, "input seed: AMR64 cluster centres and the WAN traffic model")
		seconds   = flag.Int("seconds", runSeconds, "keep starting whole runs for this many seconds")
		traceMode = flag.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from traced runs")
		pinSeeds  = flag.String("pin", "", "regenerate samrbench/pins.json for seeds LO-HI, checking each against cmd/samrsim")
		benchJSON = flag.Bool("benchmark-json", false, "print BENCHMARK.json")
		child     = flag.Bool("child", false, "internal: run once in this process and print its record")
		traced    = flag.Bool("traced", false, "internal (-child): trace the run")
		setupOnly = flag.Bool("setup-only", false, "internal (-child): set up without running")
	)
	flag.Parse()
	buildDir := os.Getenv("CARGO_TARGET_DIR")
	if buildDir == "" {
		buildDir = ".bench_build"
	}

	switch {
	case *benchJSON:
		return printBenchmarkJSON()
	case *pinSeeds != "":
		return generatePins(*pinSeeds, buildDir)
	case *child:
		w, err := findSpec(*wlName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		out, err := json.Marshal(runOnce(w, *seed, *traced, *setupOnly, buildDir))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		fmt.Println(string(out))
		return 0
	}

	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintln(os.Stderr, "-trace must be 0 or 1")
		return 2
	}
	var specs []spec
	if *wlName == "all" {
		specs = workloads
	} else {
		w, err := findSpec(*wlName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		specs = []spec{w}
	}
	pins, err := loadPins()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	code := 0
	for _, w := range specs {
		s := measure(exe, w, *seed, time.Duration(*seconds)*time.Second, *traceMode == 1, pins)
		s.print(os.Stdout)
		if !s.Correct {
			code = 1
		}
	}
	return code
}

// spawn runs one child process and returns its record, with the
// child's peak resident memory filled in.
func spawn(ctx context.Context, exe string, w spec, seed int64, traced, setupOnly bool) record {
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", w.name,
		"-seed", strconv.FormatInt(seed, 10),
		"-traced="+strconv.FormatBool(traced), "-setup-only="+strconv.FormatBool(setupOnly))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	rec := record{Traced: traced, SetupOnly: setupOnly}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if jerr := json.Unmarshal(lines[len(lines)-1], &rec); jerr != nil && err == nil {
		err = fmt.Errorf("child record: %w", jerr)
	}
	if err != nil && rec.Err == "" {
		rec.Err = fmt.Sprintf("child process: %v", err)
	}
	if ps := cmd.ProcessState; ps != nil {
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			rec.PeakRSSMB = float64(ru.Maxrss) * 1024 / 1e6
		}
	}
	return rec
}

// summary is one workload's measurement, printed as a report and as
// the final JSON line.
type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`

	workload string
	seed     int64
	failures []string
	timings  []string // median/tail lines for the report
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure spawns set-up-only children, then whole runs until the
// measuring time is spent, and judges every record. In trace mode the
// runs alternate untraced and traced, at least one of each.
func measure(exe string, w spec, seed int64, seconds time.Duration, traceMode bool, pins pinSet) summary {
	ctx, cancel := context.WithTimeout(context.Background(), hardLimit)
	defer cancel()
	deadline := time.Now().Add(seconds)
	var recs []record
	for i := 0; i < setupChildren; i++ {
		recs = append(recs, spawn(ctx, exe, w, seed, false, true))
	}
	for n := 0; ctx.Err() == nil; n++ {
		rec := spawn(ctx, exe, w, seed, traceMode && n%2 == 1, false)
		recs = append(recs, rec)
		// A crashed run ends the measurement rather than being retried
		// for the rest of the measuring time.
		if rec.Err != "" || time.Now().After(deadline) && (!traceMode || n >= 1) {
			break
		}
	}

	s := summary{workload: w.name, seed: seed, Attempted: len(recs)}
	var ref *pin
	if p, ok := pins.lookup(w.name, seed); ok {
		ref = &p
	}
	good, failures := judgeAll(recs, ref)
	s.failures = failures
	s.Failed = len(failures)
	s.Correct = s.Failed == 0
	if traceMode {
		s.Metrics = s.layerMetrics(good)
	} else {
		s.Metrics = s.endToEndMetrics(good)
	}
	return s
}

// endToEndMetrics reports run_s and cell_updates_per_s over the faster
// half of the untraced runs, and the other metrics as medians. Every
// run does the same work, and load from other tenants of a shared host
// only ever adds time to a run, so the faster half estimates the
// program's own cost more steadily than the median of a handful of
// runs, which moves with that load from one invocation to the next.
func (s *summary) endToEndMetrics(recs []record) map[string]jsonMetric {
	var run, step, setup, alloc, rss []float64
	var runs []record
	for _, r := range recs {
		if r.Traced {
			continue
		}
		setup = append(setup, r.SetupS)
		if r.SetupOnly {
			continue
		}
		runs = append(runs, r)
		run = append(run, r.RunS)
		step = append(step, r.StepS...)
		alloc = append(alloc, float64(r.AllocBytes)/1e6)
		rss = append(rss, r.PeakRSSMB)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].RunS < runs[j].RunS })
	fast := runs[:min(len(runs), max(1, len(runs)/2))]
	var runS, cups float64
	if len(fast) > 0 {
		var updates float64
		for _, r := range fast {
			runS += r.RunS
			updates += float64(r.CellUpdates)
		}
		cups = updates / runS
		runS /= float64(len(fast))
	}
	s.timings = append(s.timings,
		"run_s: "+describe(run, "s"),
		fmt.Sprintf("run_s: mean %.6g s over the faster %d of %d runs", runS, len(fast), len(runs)),
		"level-0 step: "+describe(step, "s"),
		"setup_s: "+describe(setup, "s"))
	vals := map[string]float64{
		"run_s":              runS,
		"setup_s":            median(setup),
		"cell_updates_per_s": cups,
		"alloc_mb":           median(alloc),
		"peak_rss_mb":        median(rss),
	}
	return withUnits(vals, endToEnd)
}

func (s *summary) layerMetrics(recs []record) map[string]jsonMetric {
	layers := map[string][]float64{}
	var tracedRun, plainRun []float64
	for _, r := range recs {
		if r.SetupOnly {
			continue
		}
		if r.Traced {
			tracedRun = append(tracedRun, r.RunS)
			for k, v := range r.Layers {
				layers[k] = append(layers[k], v)
			}
			continue
		}
		plainRun = append(plainRun, r.RunS)
		for k, v := range map[string]float64{
			"amr.grids":          float64(r.PeakGrids),
			"amr.cells":          float64(r.PeakCells),
			"amr.cell_updates":   float64(r.CellUpdates),
			"mpx.frames":         float64(r.Frames),
			"mpx.bytes":          float64(r.Bytes),
			"mpx.faults":         float64(r.TransportFaults),
			"load.ledger_events": float64(r.LedgerEvents),
			"go.mallocs":         float64(r.Mallocs),
			"go.gc_cycles":       float64(r.GCCycles),
			"go.gc_pause_s":      r.GCPauseS,
		} {
			layers[k] = append(layers[k], v)
		}
	}
	vals := map[string]float64{}
	for k, xs := range layers {
		vals[k] = median(xs)
	}
	vals["trace.overhead_s"] = median(tracedRun) - median(plainRun)
	s.timings = append(s.timings,
		"untraced run_s: "+describe(plainRun, "s"),
		"traced run_s: "+describe(tracedRun, "s"))
	return withUnits(vals, perLayer)
}

// withUnits keeps exactly the defined metrics, with their units; a
// metric no record produced reads 0.
func withUnits(vals map[string]float64, defs []metricDef) map[string]jsonMetric {
	out := make(map[string]jsonMetric, len(defs))
	for _, d := range defs {
		out[d.Name] = jsonMetric{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

// print writes the human-readable report, then the JSON line.
func (s summary) print(f *os.File) {
	fmt.Fprintf(f, "samrbench %s seed=%d: %d attempted, %d failed\n", s.workload, s.seed, s.Attempted, s.Failed)
	fmt.Fprintf(f, "  %-36s %.6g ratio\n", "fail_frac", float64(s.Failed)/float64(max(s.Attempted, 1)))
	for _, why := range s.failures {
		fmt.Fprintf(f, "  FAILED %s\n", why)
	}
	for _, t := range s.timings {
		fmt.Fprintf(f, "  %s\n", t)
	}
	names := make([]string, 0, len(s.Metrics))
	for k := range s.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(f, "  %-36s %.6g %s\n", k, s.Metrics[k].Value, s.Metrics[k].Unit)
	}
	out, err := json.Marshal(s)
	if err != nil {
		panic(err) // every value is a finite float
	}
	fmt.Fprintln(f, string(out))
}

// benchFile is the layout of BENCHMARK.json.
type benchFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []benchWorkload `json:"workloads"`
	EndToEnd   []metricDef     `json:"end_to_end"`
	PerLayer   []metricDef     `json:"per_layer"`
}

type benchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func benchmarkJSON() ([]byte, error) {
	f := benchFile{
		Command:    []string{"bash", "samrbench/run.sh"},
		Paths:      []string{"samrbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, benchWorkload{Name: w.name, Why: w.why})
	}
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

func printBenchmarkJSON() int {
	out, err := benchmarkJSON()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	os.Stdout.Write(out)
	return 0
}

// generatePins runs every workload once per seed in lo-hi, checks each
// Result line that has a samrsim equivalent against the first line
// cmd/samrsim prints for it, and writes samrbench/pins.json. Run it
// from the repository root.
func generatePins(seeds, buildDir string) int {
	lo, hi, ok := strings.Cut(seeds, "-")
	a, err1 := strconv.ParseInt(lo, 10, 64)
	b, err2 := strconv.ParseInt(hi, 10, 64)
	if !ok || err1 != nil || err2 != nil || b < a {
		fmt.Fprintf(os.Stderr, "-pin wants LO-HI, got %q\n", seeds)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	samrsim := filepath.Join(buildDir, "samrsim")
	if out, err := exec.Command("go", "build", "-o", samrsim, "./cmd/samrsim").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build samrsim: %v\n%s", err, out)
		return 2
	}
	pins := pinSet{}
	for _, w := range workloads {
		pins[w.name] = map[string]pin{}
		for seed := a; seed <= b; seed++ {
			rec := spawn(context.Background(), exe, w, seed, false, false)
			if why := judge(rec, nil); why != "" {
				fmt.Fprintf(os.Stderr, "%s seed %d: %s\n", w.name, seed, why)
				return 1
			}
			pins[w.name][strconv.FormatInt(seed, 10)] = pin{Result: rec.Result, Checksum: rec.Checksum}
			if !w.samrsimEquivalent(seed) {
				fmt.Fprintf(os.Stderr, "%s seed %d: pinned\n", w.name, seed)
				continue
			}
			line, err := samrsimLine(samrsim, w, seed, buildDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s seed %d: samrsim: %v\n", w.name, seed, err)
				return 1
			}
			if line != rec.Result {
				fmt.Fprintf(os.Stderr, "%s seed %d: samrsim prints\n  %s\nthe benchmark ran\n  %s\n", w.name, seed, line, rec.Result)
				return 1
			}
			fmt.Fprintf(os.Stderr, "%s seed %d: pinned, matches samrsim\n", w.name, seed)
		}
	}
	out, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if err := os.WriteFile(filepath.Join("samrbench", "pins.json"), append(out, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	return 0
}

// samrsimLine runs the samrsim binary on w's configuration and returns
// the first line of its output, the Result line.
func samrsimLine(samrsim string, w spec, seed int64, buildDir string) (string, error) {
	ckptDir, err := os.MkdirTemp(buildDir, "ckpt-")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(ckptDir)
	out, err := exec.Command(samrsim, w.samrsimArgs(seed, ckptDir)...).Output()
	if err != nil {
		return "", err
	}
	line, _, _ := strings.Cut(string(out), "\n")
	return line, nil
}
