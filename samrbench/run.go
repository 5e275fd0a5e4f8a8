package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"samrdlb/internal/amr"
	"samrdlb/internal/engine"
)

// record is what one child process reports about its single set-up
// and, unless SetupOnly, its single run.
type record struct {
	Traced    bool    `json:"traced"`
	SetupOnly bool    `json:"setup_only"`
	SetupS    float64 `json:"setup_s"`
	RunS      float64 `json:"run_s"`
	// StepS are the wall times of the level-0 steps, boundary to
	// AfterStep.
	StepS    []float64 `json:"step_s"`
	Result   string    `json:"result"`
	Checksum string    `json:"checksum,omitempty"`

	AllocBytes uint64  `json:"alloc_bytes"`
	Mallocs    uint64  `json:"mallocs"`
	GCCycles   uint32  `json:"gc_cycles"`
	GCPauseS   float64 `json:"gc_pause_s"`

	CellUpdates int64 `json:"cell_updates"`
	PeakGrids   int   `json:"peak_grids"`
	PeakCells   int64 `json:"peak_cells"`

	TransportFaults    int    `json:"transport_faults"`
	TransportFallbacks int    `json:"transport_fallbacks"`
	Frames             int64  `json:"frames"`
	Bytes              int64  `json:"bytes"`
	LedgerEvents       uint64 `json:"ledger_events"`

	// Layers are the span-derived metrics of a traced run.
	Layers map[string]float64 `json:"layers,omitempty"`

	// PeakRSSMB is the child's peak resident memory, filled in by the
	// parent from the child's resource usage.
	PeakRSSMB float64 `json:"peak_rss_mb"`

	// Err is the panic or process failure that ended the run.
	Err string `json:"err,omitempty"`
}

// counter accumulates per-level-0-step wall times and hierarchy sizes
// from AfterStep.
type counter struct {
	last      time.Time // previous level-0 boundary
	steps     []float64
	updates   int64
	peakGrids int
	peakCells int64
}

// observe adds one level-0 step: level l is stepped ref^l times.
func (c *counter) observe(h *amr.Hierarchy) {
	now := time.Now()
	c.steps = append(c.steps, now.Sub(c.last).Seconds())
	c.last = now
	var cells, updates int64
	grids := 0
	mult := int64(1)
	for l := 0; l <= h.MaxLevel; l++ {
		n := h.TotalCells(l)
		cells += n
		updates += n * mult
		grids += len(h.Grids(l))
		mult *= int64(h.RefFactor)
	}
	c.updates += updates
	c.peakGrids = max(c.peakGrids, grids)
	c.peakCells = max(c.peakCells, cells)
}

// runOnce sets up one workload run and, unless setupOnly, executes it.
// A traced run wraps the driver, kernels and balancer and cuts engine
// phases at the hooks, writing its spans to buildDir/trace. A panic
// becomes rec.Err.
func runOnce(w spec, seed int64, traced, setupOnly bool, buildDir string) (rec record) {
	rec = record{Traced: traced, SetupOnly: setupOnly}
	defer func() {
		if p := recover(); p != nil {
			rec.Err = fmt.Sprintf("panic: %v", p)
		}
	}()
	ckptDir := ""
	if w.ckptInterval > 0 {
		d, err := os.MkdirTemp(buildDir, "ckpt-")
		if err != nil {
			rec.Err = err.Error()
			return rec
		}
		defer os.RemoveAll(d)
		ckptDir = d
	}

	var tr *tracer
	t0 := time.Now()
	if traced {
		tr = newTracer()
		tr.beginSetup()
	}
	driver, sys, opt := w.build(seed, ckptDir)
	var c counter
	opt.AfterStep = func(_ int, r *engine.Runner) { c.observe(r.Hierarchy()) }
	if traced {
		driver = wrapDriver(driver, tr)
		opt.Balancer = tracedBalancer{Balancer: opt.Balancer, tr: tr}
		opt.Invariants = tr.hook
		opt.AfterStep = func(s int, r *engine.Runner) {
			c.observe(r.Hierarchy())
			tr.afterStep(s)
		}
	}
	r := engine.New(sys, driver, opt)
	rec.SetupS = time.Since(t0).Seconds()
	if traced {
		tr.endSetup()
	}
	if setupOnly {
		r.Close()
		return rec
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if traced {
		tr.beginStep(0)
	}
	t1 := time.Now()
	c.last = t1
	res := r.Run()
	rec.RunS = time.Since(t1).Seconds()
	runtime.ReadMemStats(&m1)

	rec.Result = res.String()
	if w.data {
		rec.Checksum = checksum(r.Hierarchy())
	}
	rec.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	rec.Mallocs = m1.Mallocs - m0.Mallocs
	rec.GCCycles = m1.NumGC - m0.NumGC
	rec.GCPauseS = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9
	rec.StepS = c.steps
	rec.CellUpdates, rec.PeakGrids, rec.PeakCells = c.updates, c.peakGrids, c.peakCells
	rec.TransportFaults = res.TransportFaults
	rec.TransportFallbacks = res.TransportFallbacks
	rec.Frames, rec.Bytes = res.TransportFrames, res.TransportBytes
	rec.LedgerEvents = res.LedgerEvents
	if traced {
		spans := tr.finish()
		rec.Layers = spanMetrics(spans)
		dir := filepath.Join(buildDir, "trace")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			rec.Err = err.Error()
			return rec
		}
		if err := writeSpans(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed)), spans); err != nil {
			rec.Err = err.Error()
		}
	}
	return rec
}
