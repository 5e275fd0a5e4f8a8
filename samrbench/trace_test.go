package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestCoverMergesOverlapsAndClips(t *testing.T) {
	iv := [][2]int64{{50, 70}, {0, 20}, {10, 30}, {65, 90}, {200, 300}}
	// Inside [5, 80): [5,30) + [50,80) = 25 + 30.
	if got := cover(iv, 5, 80); got != 55 {
		t.Fatalf("cover = %d, want 55", got)
	}
	if got := cover(nil, 0, 10); got != 0 {
		t.Fatalf("cover of nothing = %d", got)
	}
}

// Two pool workers step kernels at once: their spans overlap, so the
// step's self time subtracts the union of the cover, not the sum.
func TestSelfTimeWithOverlappingParallelKernels(t *testing.T) {
	spans := []Span{
		{Name: spanLevel0, Start: 0, End: 200, Parent: -1},
		{Name: spanStep, Start: 0, End: 100, Parent: 0},
		{Name: spanKernel, Start: 10, End: 50, Parent: 1, Detail: "advection3d-upwind", Count: 8},
		{Name: spanKernel, Start: 20, End: 60, Parent: 1, Detail: "advection3d-upwind", Count: 8},
		{Name: spanKernel, Start: 70, End: 80, Parent: 1, Detail: "gauss-seidel-poisson", Count: 4},
		{Name: spanLocal, Start: 85, End: 90, Parent: 1, Count: 3},
		{Name: spanGlobal, Start: 100, End: 110, Parent: 0, Detail: verdictRedistributed},
		{Name: spanPost, Start: 110, End: 200, Parent: 0},
		{Name: spanCkptWrite, Start: 110, End: 190, Parent: 7},
	}
	self := selfTimes(spans)
	// Step: kernels cover [10,60) and [70,80), local [85,90): 65 of 100.
	if self[1] != 35 {
		t.Fatalf("step self = %d, want 35", self[1])
	}
	if self[2] != 40 || self[7] != 10 {
		t.Fatalf("leaf/post self = %d/%d, want 40/10", self[2], self[7])
	}
	// Level-0: step, global and post tile it exactly.
	if self[0] != 0 {
		t.Fatalf("level-0 self = %d, want 0", self[0])
	}

	m := spanMetrics(spans)
	want := map[string]float64{
		"amr.step_self_s":                    35e-9,
		"solver.kernel_busy_s":               90e-9,
		"solver.kernel_wall_s":               60e-9,
		"solver.parallelism":                 1.5,
		"solver.advection3d-upwind.busy_s":   80e-9,
		"solver.gauss-seidel-poisson.busy_s": 10e-9,
		"solver.kernel_calls":                3,
		"solver.kernel_cells":                20,
		"dlb.local_migrations":               3,
		"dlb.global_evals":                   1,
		"dlb.redists":                        1,
		"dlb.redist_ratio":                   1,
		"ckpt.writes":                        1,
		"ckpt.write_s":                       80e-9,
		"engine.post_s":                      90e-9,
		"engine.step_s":                      100e-9,
		"workload.flag_calls":                0,
	}
	for k, v := range want {
		if math.Abs(m[k]-v) > 1e-15 {
			t.Errorf("%s = %g, want %g", k, m[k], v)
		}
	}
}

// A traced tiny run: every span closes inside its parent, and each
// span's self time plus its children's cover is its duration.
func TestTracedSpansNest(t *testing.T) {
	w := tinyWorkloads[0]
	dir := t.TempDir()
	if rec := runOnce(w, 3, true, false, dir); rec.Err != "" {
		t.Fatal(rec.Err)
	}
	spans := readSpans(t, filepath.Join(dir, "trace", w.name+"-seed3.jsonl"))
	self := selfTimes(spans)
	names := map[string]int{}
	for i, s := range spans {
		names[s.Name]++
		if s.End < s.Start {
			t.Fatalf("span %d %s ends before it starts", i, s.Name)
		}
		if s.Parent >= 0 {
			p := spans[s.Parent]
			if s.Start < p.Start || s.End > p.End {
				t.Fatalf("span %d %s [%d,%d] outside parent %s [%d,%d]", i, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
			}
			if s.Step != p.Step {
				t.Fatalf("span %d %s step %d, parent step %d", i, s.Name, s.Step, p.Step)
			}
		}
		if self[i] < 0 {
			t.Fatalf("span %d %s: negative self time %d", i, s.Name, self[i])
		}
	}
	steps := tinyWorkloads[0].steps
	for _, n := range []string{spanLevel0, spanRegrid, spanStep, spanGlobal, spanPost} {
		if names[n] != steps {
			t.Errorf("%d %s spans, want one per level-0 step (%d)", names[n], n, steps)
		}
	}
	for _, n := range []string{spanSetup, spanFlag, spanInit, spanKernel, spanPlace, spanLocal} {
		if names[n] == 0 {
			t.Errorf("no %s span", n)
		}
	}
}

func readSpans(t *testing.T, path string) []Span {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []Span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return spans
}
