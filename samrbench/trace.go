package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"samrdlb/internal/engine"
)

// Span is one timed interval of a traced run. Times are nanoseconds
// since the tracer started.
type Span struct {
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"` // -1 while open
	// Parent is the index of the enclosing span, -1 for a root.
	Parent int `json:"parent"`
	// Step is the level-0 step the span belongs to, -1 during set-up.
	Step int `json:"step"`
	// Detail names the kernel of a solver.kernel span and the verdict
	// of a dlb.global span.
	Detail string `json:"detail,omitempty"`
	// Count is the cells a kernel stepped or the migrations a balance
	// call returned.
	Count int64 `json:"count,omitempty"`
}

func (s Span) dur() int64 { return s.End - s.Start }

// Span names. Engine spans are cut at the hooks the engine exposes;
// the others are timed around calls into the wrapped driver, kernels
// and balancer.
const (
	spanSetup     = "engine.setup"  // driver, system and engine.New
	spanLevel0    = "engine.level0" // one level-0 step, boundary to AfterStep
	spanRegrid    = "engine.regrid" // boundary to the PhaseRegrid hook
	spanStep      = "engine.step"   // PhaseRegrid to GlobalBalance entry
	spanPost      = "engine.post"   // GlobalBalance return to AfterStep
	spanFlag      = "workload.flag"
	spanInit      = "workload.init"
	spanKernel    = "solver.kernel"
	spanPlace     = "dlb.place_child"
	spanLocal     = "dlb.local"
	spanGlobal    = "dlb.global"
	spanCkptWrite = "ckpt.write" // GlobalBalance return to the PhaseCheckpoint hook
)

// tracer keeps a run's spans in memory. The engine spans are opened
// and closed from the engine's goroutine through the hooks; layer
// spans may arrive from pool workers, so every access holds mu.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []Span
	phase  int // innermost open engine span: parent of layer spans
	level0 int // open level-0 step span
	step   int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), phase: -1, level0: -1, step: -1}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// open starts an engine span under parent and returns its index.
func (t *tracer) open(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Start: t.now(), End: -1, Parent: parent, Step: t.step})
	return len(t.spans) - 1
}

func (t *tracer) close(i int) {
	t.mu.Lock()
	t.spans[i].End = t.now()
	t.mu.Unlock()
}

// layer records a finished layer span that started at start, under
// the engine span open at the moment it ends.
func (t *tracer) layer(name string, start int64, detail string, count int64) {
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Start: start, End: t.now(), Parent: t.phase, Step: t.step, Detail: detail, Count: count})
	t.mu.Unlock()
}

func (t *tracer) setPhase(i int) {
	t.mu.Lock()
	t.phase = i
	t.mu.Unlock()
}

func (t *tracer) beginSetup() { t.setPhase(t.open(spanSetup, -1)) }

func (t *tracer) endSetup() {
	t.close(t.phase)
	t.setPhase(-1)
}

// beginStep marks a level-0 boundary: step s starts, and with it its
// regrid phase.
func (t *tracer) beginStep(s int) {
	t.mu.Lock()
	t.step = s
	t.mu.Unlock()
	t.level0 = t.open(spanLevel0, -1)
	t.setPhase(t.open(spanRegrid, t.level0))
}

// hook is the Options.Invariants callback: PhaseRegrid ends the regrid
// phase, PhaseCheckpoint ends a durable checkpoint write.
func (t *tracer) hook(info *engine.PhaseInfo) {
	switch info.Phase {
	case engine.PhaseRegrid:
		t.close(t.phase)
		t.setPhase(t.open(spanStep, t.level0))
	case engine.PhaseCheckpoint:
		t.mu.Lock()
		start := t.spans[t.phase].Start
		t.mu.Unlock()
		t.layer(spanCkptWrite, start, "", 0)
	}
}

// enterGlobal ends the step phase as the balancer's global phase
// starts; the dlb.global span hangs off the level-0 span.
func (t *tracer) enterGlobal() int64 {
	t.close(t.phase)
	t.setPhase(t.level0)
	return t.now()
}

func (t *tracer) exitGlobal(start int64, verdict string, migrations int) {
	t.layer(spanGlobal, start, verdict, int64(migrations))
	t.setPhase(t.open(spanPost, t.level0))
}

// afterStep is the Options.AfterStep callback: it closes step s and
// opens step s+1 at the same boundary.
func (t *tracer) afterStep(s int) {
	t.close(t.phase)
	t.close(t.level0)
	t.beginStep(s + 1)
}

// finish drops the spans still open after Run returns: the level-0
// and regrid spans beginStep opened past the last step, which cover
// no engine work.
func (t *tracer) finish() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.spans) > 0 && t.spans[len(t.spans)-1].End < 0 {
		t.spans = t.spans[:len(t.spans)-1]
	}
	for i, s := range t.spans {
		if s.End < 0 {
			panic(fmt.Sprintf("samrbench: span %d (%s) never closed", i, s.Name))
		}
	}
	return t.spans
}

// writeSpans writes spans to path as JSON lines.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cover returns the length of [lo, hi) covered by the union of the
// intervals, which may overlap (kernel spans from parallel workers).
func cover(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if a >= b {
			continue
		}
		if a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
			continue
		}
		curHi = max(curHi, b)
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// selfTimes returns each span's duration minus the union of its direct
// children's cover.
func selfTimes(spans []Span) []int64 {
	kids := make([][][2]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - cover(kids[i], s.Start, s.End)
	}
	return self
}

// spanMetrics aggregates a traced run's spans into the span-derived
// per-layer metrics, in seconds and counts.
func spanMetrics(spans []Span) map[string]float64 {
	self := selfTimes(spans)
	dur := map[string]int64{}
	calls := map[string]int64{}
	counts := map[string]int64{}
	selfBy := map[string]int64{}
	kernelBusy := map[string]int64{}
	var kernels [][2]int64
	var kernelLo, kernelHi int64
	var evals, redists int64
	for i, s := range spans {
		dur[s.Name] += s.dur()
		calls[s.Name]++
		counts[s.Name] += s.Count
		selfBy[s.Name] += self[i]
		switch s.Name {
		case spanKernel:
			kernelBusy[s.Detail] += s.dur()
			if len(kernels) == 0 || s.Start < kernelLo {
				kernelLo = s.Start
			}
			kernelHi = max(kernelHi, s.End)
			kernels = append(kernels, [2]int64{s.Start, s.End})
		case spanGlobal:
			if s.Detail == verdictKept || s.Detail == verdictRedistributed {
				evals++
			}
			if s.Detail == verdictRedistributed {
				redists++
			}
		}
	}
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	kernelWall := cover(kernels, kernelLo, kernelHi)
	m := map[string]float64{
		"engine.regrid_s":       sec(dur[spanRegrid]),
		"engine.step_s":         sec(dur[spanStep]),
		"engine.post_s":         sec(dur[spanPost]),
		"amr.regrid_self_s":     sec(selfBy[spanRegrid]),
		"amr.step_self_s":       sec(selfBy[spanStep]),
		"workload.flag_s":       sec(dur[spanFlag]),
		"workload.flag_calls":   float64(calls[spanFlag]),
		"workload.init_s":       sec(dur[spanInit]),
		"workload.init_calls":   float64(calls[spanInit]),
		"solver.kernel_busy_s":  sec(dur[spanKernel]),
		"solver.kernel_wall_s":  sec(kernelWall),
		"solver.kernel_calls":   float64(calls[spanKernel]),
		"solver.kernel_cells":   float64(counts[spanKernel]),
		"solver.parallelism":    ratio(float64(dur[spanKernel]), float64(kernelWall)),
		"dlb.place_child_s":     sec(dur[spanPlace]),
		"dlb.place_child_calls": float64(calls[spanPlace]),
		"dlb.local_s":           sec(dur[spanLocal]),
		"dlb.local_calls":       float64(calls[spanLocal]),
		"dlb.local_migrations":  float64(counts[spanLocal]),
		"dlb.global_s":          sec(dur[spanGlobal]),
		"dlb.global_evals":      float64(evals),
		"dlb.redists":           float64(redists),
		"dlb.redist_ratio":      ratio(float64(redists), float64(evals)),
		"ckpt.write_s":          sec(dur[spanCkptWrite]),
		"ckpt.writes":           float64(calls[spanCkptWrite]),
	}
	for _, k := range kernelNames {
		m["solver."+k+".busy_s"] = sec(kernelBusy[k])
	}
	return m
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
