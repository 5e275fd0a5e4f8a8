package main

import (
	"fmt"
	"sort"
)

// metricDef describes one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func bounded(name, unit, better string, bound float64) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Bound: &bound}
}

// endToEnd are the metrics a samrsim user sees, measured untraced.
// Wall times on a shared two-core host drift with the neighbours' load,
// whatever the run length, and peak memory moves by up to eight percent
// from run to run with garbage-collector timing, so their bounds are
// wide. Allocated bytes repeat to a part in a thousand.
var endToEnd = []metricDef{
	bounded("run_s", "s", "lower", 0.25),
	bounded("setup_s", "s", "lower", 0.25),
	bounded("cell_updates_per_s", "1/s", "higher", 0.25),
	bounded("alloc_mb", "MB", "lower", 0.1),
	bounded("peak_rss_mb", "MB", "lower", 0.25),
}

// perLayer are the traced run's layer metrics; see README.md for the
// end-to-end metric and workload each should move.
var perLayer = func() []metricDef {
	lower := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	higher := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	defs := []metricDef{
		lower("engine.regrid_s", "s"),
		lower("engine.step_s", "s"),
		lower("engine.post_s", "s"),
		lower("amr.regrid_self_s", "s"),
		lower("amr.step_self_s", "s"),
		lower("amr.grids", "count"),
		lower("amr.cells", "count"),
		higher("amr.cell_updates", "count"),
		lower("workload.flag_s", "s"),
		lower("workload.flag_calls", "count"),
		lower("workload.init_s", "s"),
		lower("workload.init_calls", "count"),
		lower("solver.kernel_busy_s", "s"),
	}
	for _, k := range kernelNames {
		defs = append(defs, lower("solver."+k+".busy_s", "s"))
	}
	return append(defs,
		lower("solver.kernel_wall_s", "s"),
		lower("solver.kernel_calls", "count"),
		higher("solver.kernel_cells", "count"),
		higher("solver.parallelism", "ratio"),
		lower("dlb.place_child_s", "s"),
		lower("dlb.place_child_calls", "count"),
		lower("dlb.local_s", "s"),
		lower("dlb.local_calls", "count"),
		lower("dlb.local_migrations", "count"),
		lower("dlb.global_s", "s"),
		lower("dlb.global_evals", "count"),
		lower("dlb.redists", "count"),
		lower("dlb.redist_ratio", "ratio"),
		lower("ckpt.write_s", "s"),
		lower("ckpt.writes", "count"),
		lower("mpx.frames", "count"),
		lower("mpx.bytes", "bytes"),
		lower("mpx.faults", "count"),
		lower("load.ledger_events", "count"),
		lower("go.mallocs", "count"),
		lower("go.gc_cycles", "count"),
		lower("go.gc_pause_s", "s"),
		lower("trace.overhead_s", "s"),
	)
}()

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that has at least ten
// samples beyond it, and its value; ok is false below eleven samples.
func tail(xs []float64) (pct, v float64, ok bool) {
	n := len(xs)
	if n < 11 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := n - 11 // s[k] has s[k+1..n-1], ten samples, beyond it
	return 100 * float64(k+1) / float64(n), s[k], true
}

// describe renders a timing as its median plus its tail percentile,
// with the sample count.
func describe(xs []float64, unit string) string {
	out := fmt.Sprintf("median %.6g %s over %d samples", median(xs), unit, len(xs))
	if pct, v, ok := tail(xs); ok {
		return out + fmt.Sprintf(", p%.0f %.6g %s", pct, v, unit)
	}
	return out + ", no percentile with >=10 samples beyond it"
}
