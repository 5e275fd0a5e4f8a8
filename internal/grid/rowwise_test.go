package grid

import (
	"math/rand"
	"slices"
	"testing"

	"samrdlb/internal/geom"
)

// The row-wise kernels in patch.go replaced per-cell closure loops.
// These tests pin them, bit for bit, against naive per-cell references
// equivalent to the originals — including boxes with negative (ghost)
// indices.

func randPatch(rng *rand.Rand, box geom.Box, level, nghost int) *Patch {
	p := NewPatch(box, level, nghost, "q")
	// FillFunc covers the grown box, ghosts included.
	p.FillFunc("q", func(geom.Index) float64 { return rng.Float64() })
	return p
}

func refCopyRegion(dst, src *Patch, name string, region geom.Box) {
	r := region.Intersect(dst.Grown()).Intersect(src.Grown())
	r.ForEach(func(i geom.Index) {
		dst.Set(name, i, src.At(name, i))
	})
}

func refProlong(fine, coarse *Patch, name string, r int, region geom.Box) {
	cg := coarse.Grown()
	region.Intersect(fine.Grown()).ForEach(func(f geom.Index) {
		c := f.FloorDiv(r)
		if !cg.Contains(c) {
			return
		}
		fine.Set(name, f, coarse.At(name, c))
	})
}

func refRestrict(coarse, fine *Patch, name string, r int) {
	overlap := coarse.Box.Intersect(fine.Box.Coarsen(r))
	inv := 1.0 / float64(r*r*r)
	r3 := float64(r * r * r)
	overlap.ForEach(func(c geom.Index) {
		fb := geom.Box{Lo: c.Scale(r), Hi: c.Scale(r).Add(geom.Index{r - 1, r - 1, r - 1})}.
			Intersect(fine.Box)
		var s float64
		fb.ForEach(func(f geom.Index) { s += fine.At(name, f) })
		coarse.Set(name, c, s*inv*r3/float64(fb.NumCells()))
	})
}

func refClamp(p *Patch, name string, region, src geom.Box) {
	region.Intersect(p.Grown()).ForEach(func(i geom.Index) {
		p.Set(name, i, p.At(name, i.Max(src.Lo).Min(src.Hi)))
	})
}

// refPack and refUnpack are the per-cell originals of PackRegion and
// UnpackRegion.
func refPack(p *Patch, region geom.Box, fields []string) []float64 {
	var out []float64
	for _, name := range fields {
		region.ForEach(func(i geom.Index) { out = append(out, p.At(name, i)) })
	}
	return out
}

func refUnpack(p *Patch, region geom.Box, fields []string, data []float64) {
	k := 0
	for _, name := range fields {
		region.ForEach(func(i geom.Index) {
			p.Set(name, i, data[k])
			k++
		})
	}
}

func assertSameField(t *testing.T, want, got *Patch, context string) {
	t.Helper()
	wf, gf := want.Field("q"), got.Field("q")
	for k := range wf {
		if wf[k] != gf[k] {
			t.Fatalf("%s: field differs at flat index %d: want %v, got %v", context, k, wf[k], gf[k])
		}
	}
}

func TestCopyRegionMatchesPerCell(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Boxes straddling the origin so negative indices are exercised.
	src := randPatch(rng, geom.Box{Lo: geom.Index{-4, -3, -2}, Hi: geom.Index{5, 6, 7}}, 0, 2)
	a := randPatch(rng, geom.Box{Lo: geom.Index{-1, -1, -1}, Hi: geom.Index{8, 8, 8}}, 0, 2)
	b := a.Clone()
	region := geom.Box{Lo: geom.Index{-3, -2, -1}, Hi: geom.Index{4, 5, 6}}
	CopyRegion(a, src, "q", region)
	refCopyRegion(b, src, "q", region)
	assertSameField(t, b, a, "CopyRegion")
}

func TestProlongMatchesPerCell(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, r := range []int{2, 4} {
		coarse := randPatch(rng, geom.Box{Lo: geom.Index{-2, -2, -2}, Hi: geom.Index{5, 5, 5}}, 0, 1)
		a := randPatch(rng, geom.Box{Lo: geom.Index{-3, -3, -3}, Hi: geom.Index{9, 9, 9}}, 1, 2)
		b := a.Clone()
		// Region deliberately larger than the coarse footprint so the
		// clip-vs-contains equivalence is exercised, with negative lows.
		region := a.Grown()
		Prolong(a, coarse, "q", r, region)
		refProlong(b, coarse, "q", r, region)
		assertSameField(t, b, a, "Prolong")
	}
}

func TestRestrictMatchesPerCell(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, r := range []int{2, 3} {
		fine := randPatch(rng, geom.Box{Lo: geom.Index{-2, 0, 2}, Hi: geom.Index{9, 11, 13}}, 1, 1)
		a := randPatch(rng, geom.Box{Lo: geom.Index{-3, -3, -3}, Hi: geom.Index{6, 6, 6}}, 0, 1)
		b := a.Clone()
		Restrict(a, fine, "q", r)
		refRestrict(b, fine, "q", r)
		assertSameField(t, b, a, "Restrict")
	}
}

func TestClampRegionMatchesPerCell(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	box := geom.Box{Lo: geom.Index{0, 0, 0}, Hi: geom.Index{7, 7, 7}}
	a := randPatch(rng, box, 0, 2)
	b := a.Clone()
	// Exactly the fill path's usage: clamp every grown cell outside the
	// domain back into the grid box.
	dom := geom.Box{Lo: geom.Index{0, 0, 0}, Hi: geom.Index{15, 15, 15}}
	for _, cb := range geom.Subtract(a.Grown(), dom) {
		ClampRegion(a, "q", cb, box)
		refClamp(b, "q", cb, box)
	}
	assertSameField(t, b, a, "ClampRegion")

	// An interior grid (no domain face): clamp boxes on all six sides.
	inner := geom.Box{Lo: geom.Index{4, 4, 4}, Hi: geom.Index{11, 11, 11}}
	c := randPatch(rng, inner, 0, 2)
	d := c.Clone()
	for _, cb := range geom.Subtract(c.Grown(), dom) {
		ClampRegion(c, "q", cb, inner)
		refClamp(d, "q", cb, inner)
	}
	assertSameField(t, d, c, "ClampRegion interior")
}

// kernelBox returns a random box with low corner in [-6,3] and extent
// 1–7 per dimension; every fourth box is a 1-cell-wide x-slab, the
// shape of a ghost-fill row.
func kernelBox(rng *rand.Rand) geom.Box {
	var lo, shape geom.Index
	for d := 0; d < 3; d++ {
		lo[d] = rng.Intn(10) - 6
		shape[d] = 1 + rng.Intn(7)
	}
	if rng.Intn(4) == 0 {
		shape[0] = 1
	}
	return geom.BoxFromShape(lo, shape)
}

// regionAround returns a random box near g: it may spill past g, so
// the kernels' clipping is exercised, and is often one cell thick.
func regionAround(rng *rand.Rand, g geom.Box) geom.Box {
	r := randomRegionIn(rng, g.Grow(1))
	if d := rng.Intn(4); d < 3 {
		r.Hi[d] = r.Lo[d]
	}
	return r
}

// TestKernelsMatchPerCellRandom pins every strided kernel against its
// per-cell reference over random placements: ghost widths 1 and 2,
// negative ghost indices, 1-cell-wide x-slabs and regions that spill
// past the patches. The -check data oracle runs its planned and scan
// fills through these same kernels, so this test is the kernels' guard.
func TestKernelsMatchPerCellRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		ng := 1 + trial%2
		box := kernelBox(rng)

		src := randPatch(rng, kernelBox(rng), 0, ng)
		a := randPatch(rng, box, 0, ng)
		b := a.Clone()
		region := regionAround(rng, a.Grown())
		CopyRegion(a, src, "q", region)
		refCopyRegion(b, src, "q", region)
		assertSameField(t, b, a, "CopyRegion")

		r := 2 + 2*rng.Intn(2)
		coarse := randPatch(rng, kernelBox(rng), 0, ng)
		a = randPatch(rng, kernelBox(rng).Refine(r).Shift(geom.Index{rng.Intn(r), 0, -rng.Intn(r)}), 1, ng)
		b = a.Clone()
		region = regionAround(rng, a.Grown())
		Prolong(a, coarse, "q", r, region)
		refProlong(b, coarse, "q", r, region)
		assertSameField(t, b, a, "Prolong")

		fine := randPatch(rng, geom.BoxFromShape(box.Lo.Scale(r).Add(geom.Index{rng.Intn(3), rng.Intn(3), -rng.Intn(3)}), kernelBox(rng).Shape().Scale(2)), 1, ng)
		a = randPatch(rng, box, 0, ng)
		b = a.Clone()
		Restrict(a, fine, "q", r)
		refRestrict(b, fine, "q", r)
		assertSameField(t, b, a, "Restrict")

		a = randPatch(rng, box, 0, ng)
		b = a.Clone()
		for _, cb := range geom.Subtract(a.Grown(), box) {
			ClampRegion(a, "q", cb, box)
			refClamp(b, "q", cb, box)
		}
		assertSameField(t, b, a, "ClampRegion")

		p := NewPatch(box, 0, ng, "a", "q")
		p.FillFunc("a", func(geom.Index) float64 { return rng.Float64() })
		p.FillFunc("q", func(geom.Index) float64 { return rng.Float64() })
		fields := []string{"q", "a"}
		region = randomRegionIn(rng, p.Grown())
		if rng.Intn(3) == 0 {
			region.Hi[0] = region.Lo[0]
		}
		data := PackRegion(p, region, fields)
		if want := refPack(p, region, fields); !slices.Equal(data, want) {
			t.Fatalf("PackRegion %v of %v: got %v, want %v", region, p.Grown(), data, want)
		}
		a = NewPatch(box, 0, ng, "a", "q")
		b = a.Clone()
		UnpackRegion(a, region, fields, data)
		refUnpack(b, region, fields, data)
		assertSameField(t, b, a, "UnpackRegion")
		// Round trip: the region holds p's values, the rest stays zero.
		a.Grown().ForEach(func(i geom.Index) {
			for _, name := range fields {
				want := 0.0
				if region.Contains(i) {
					want = p.At(name, i)
				}
				if got := a.At(name, i); got != want {
					t.Fatalf("round trip %v: %s at %v = %v, want %v", region, name, i, got, want)
				}
			}
		})
	}
}

func TestPackRegionEmptyRegion(t *testing.T) {
	p := NewPatch(geom.UnitCube(4), 0, 1, "q")
	empty := geom.Box{Lo: geom.Index{3, 0, 0}, Hi: geom.Index{0, 3, 3}}
	if data := PackRegion(p, empty, []string{"q"}); len(data) != 0 {
		t.Fatalf("packing an empty region gave %d values", len(data))
	}
	UnpackRegion(p, empty, []string{"q"}, nil)
}

func TestFloorDiv(t *testing.T) {
	cases := []struct{ a, r, want int }{
		{0, 2, 0}, {1, 2, 0}, {2, 2, 1}, {3, 2, 1},
		{-1, 2, -1}, {-2, 2, -1}, {-3, 2, -2}, {-4, 2, -2},
		{-1, 4, -1}, {-4, 4, -1}, {-5, 4, -2}, {7, 4, 1},
	}
	for _, c := range cases {
		if got := floorDiv(c.a, c.r); got != c.want {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", c.a, c.r, got, c.want)
		}
	}
}
