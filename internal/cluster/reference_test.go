package cluster

import (
	"math/rand"
	"slices"
	"testing"

	"samrdlb/internal/geom"
)

// Per-cell and multi-scan references. Dilate replaced a per-cell stamp
// of the (2r+1)³ cube around every flag, and Cluster's one-pass
// signatures replaced up to eight scans per recursion node
// (BoundingBox, CountIn and two rounds of per-dimension signature
// scans). The references below are those originals; the tests pin the
// row-wise code to them, cell for cell and box for box.

// refDilate stamps the clipped (2r+1)³ cube around every flag of f.
func refDilate(f *FlagField, r int) *FlagField {
	if r <= 0 {
		return f
	}
	out := NewFlagField(f.Box)
	f.Box.ForEach(func(i geom.Index) {
		if !f.Get(i) {
			return
		}
		geom.Box{
			Lo: i.Sub(geom.Index{r, r, r}),
			Hi: i.Add(geom.Index{r, r, r}),
		}.Intersect(f.Box).ForEach(out.Set)
	})
	return out
}

func refBoundingBox(f *FlagField, b geom.Box) geom.Box {
	b = b.Intersect(f.Box)
	lo := geom.Index{1 << 30, 1 << 30, 1 << 30}
	hi := geom.Index{-(1 << 30), -(1 << 30), -(1 << 30)}
	found := false
	b.ForEach(func(i geom.Index) {
		if f.Get(i) {
			lo, hi, found = lo.Min(i), hi.Max(i), true
		}
	})
	if !found {
		return emptyBox
	}
	return geom.Box{Lo: lo, Hi: hi}
}

func refCountIn(f *FlagField, b geom.Box) int {
	n := 0
	b.Intersect(f.Box).ForEach(func(i geom.Index) {
		if f.Get(i) {
			n++
		}
	})
	return n
}

func refSignature(f *FlagField, b geom.Box, d int) []int {
	sig := make([]int, b.Shape()[d])
	b.ForEach(func(i geom.Index) {
		if f.Get(i) {
			sig[i[d]-b.Lo[d]]++
		}
	})
	return sig
}

// refCluster is the multi-scan Berger–Rigoutsos recursion: shrink-wrap
// with BoundingBox, count with CountIn, and rescan each signature for
// each findCut pass.
func refCluster(f *FlagField, p Params) geom.BoxList {
	p.normalize()
	if f.Count() == 0 {
		return nil
	}
	var out geom.BoxList
	var rec func(b geom.Box, depth int)
	rec = func(b geom.Box, depth int) {
		b = refBoundingBox(f, b)
		if b.Empty() {
			return
		}
		eff := float64(refCountIn(f, b)) / float64(b.NumCells())
		shape := b.Shape()
		tooBig := p.MaxSize > 0 && (shape[0] > p.MaxSize || shape[1] > p.MaxSize || shape[2] > p.MaxSize)
		small := shape[0] <= p.MinSize && shape[1] <= p.MinSize && shape[2] <= p.MinSize
		if depth <= 0 || (!tooBig && (eff >= p.MinEfficiency || small)) {
			out = append(out, b)
			return
		}
		d, at, ok := refFindCut(f, b, p)
		if !ok {
			out = append(out, b)
			return
		}
		lo, hi := b.SplitAt(d, at)
		rec(lo, depth-1)
		rec(hi, depth-1)
	}
	rec(refBoundingBox(f, f.Box), p.MaxDepth)
	out.SortByLo()
	return out
}

// refFindCut is findCut with a signature scan per dimension and pass
// and a materialised Laplacian.
func refFindCut(f *FlagField, b geom.Box, p Params) (dim, at int, ok bool) {
	shape := b.Shape()
	bestDim, bestAt, bestDist := -1, 0, 1<<30
	for d := 0; d < geom.Dims; d++ {
		if shape[d] < 2*p.MinSize {
			continue
		}
		sig := refSignature(f, b, d)
		mid := len(sig) / 2
		for k := p.MinSize; k <= len(sig)-p.MinSize; k++ {
			if sig[k-1] == 0 || sig[k] == 0 {
				if dist := abs(k - mid); dist < bestDist {
					bestDim, bestAt, bestDist = d, b.Lo[d]+k, dist
				}
			}
		}
	}
	if bestDim >= 0 {
		return bestDim, bestAt, true
	}
	bestDim, bestAt = -1, 0
	bestStrength := 0
	for d := 0; d < geom.Dims; d++ {
		if shape[d] < 2*p.MinSize {
			continue
		}
		sig := refSignature(f, b, d)
		lap := make([]int, len(sig))
		for k := 1; k < len(sig)-1; k++ {
			lap[k] = sig[k+1] - 2*sig[k] + sig[k-1]
		}
		for k := p.MinSize; k < len(sig)-p.MinSize; k++ {
			if (lap[k] >= 0) != (lap[k+1] >= 0) {
				if strength := abs(lap[k] - lap[k+1]); strength > bestStrength {
					bestDim, bestAt, bestStrength = d, b.Lo[d]+k+1, strength
				}
			}
		}
	}
	if bestDim >= 0 {
		return bestDim, bestAt, true
	}
	d := shape.MaxDim()
	if shape[d] >= 2*p.MinSize {
		return d, b.Lo[d] + shape[d]/2, true
	}
	for d := 0; d < geom.Dims; d++ {
		if shape[d] >= 2*p.MinSize {
			return d, b.Lo[d] + shape[d]/2, true
		}
	}
	return 0, 0, false
}

// refFields yields random flag fields over boxes with negative lows,
// one-cell-thick slabs and single cells, at several densities
// including empty and full.
func refFields(rng *rand.Rand) []*FlagField {
	boxes := []geom.Box{
		geom.UnitCube(12),
		{Lo: geom.Index{-5, -3, -7}, Hi: geom.Index{6, 9, 2}},
		{Lo: geom.Index{-2, 0, 3}, Hi: geom.Index{-2, 7, 9}}, // 1 cell in x
		{Lo: geom.Index{0, 4, -1}, Hi: geom.Index{10, 4, 5}}, // 1 cell in y
		{Lo: geom.Index{1, 1, -4}, Hi: geom.Index{8, 6, -4}}, // 1 cell in z
		{Lo: geom.Index{3, -3, 0}, Hi: geom.Index{3, -3, 11}},
		{Lo: geom.Index{-1, -1, -1}, Hi: geom.Index{-1, -1, -1}},
	}
	var out []*FlagField
	for _, b := range boxes {
		for _, density := range []float64{0, 0.01, 0.05, 0.3, 1} {
			f := NewFlagField(b)
			b.ForEach(func(i geom.Index) {
				if rng.Float64() < density {
					f.Set(i)
				}
			})
			out = append(out, f)
		}
		// Blobs, as the workloads flag them.
		f := NewFlagField(b)
		for k := 0; k < 3; k++ {
			c := b.Lo.Add(geom.Index{rng.Intn(b.Shape()[0]), rng.Intn(b.Shape()[1]), rng.Intn(b.Shape()[2])})
			geom.Box{Lo: c.Sub(geom.Index{2, 1, 2}), Hi: c.Add(geom.Index{1, 2, 1})}.
				Intersect(b).ForEach(f.Set)
		}
		out = append(out, f)
	}
	return out
}

func sameFlags(t *testing.T, want, got *FlagField, context string) {
	t.Helper()
	if got.Box != want.Box || got.Count() != want.Count() {
		t.Fatalf("%s: got box %v count %d, want box %v count %d",
			context, got.Box, got.Count(), want.Box, want.Count())
	}
	want.Box.ForEach(func(i geom.Index) {
		if got.Get(i) != want.Get(i) {
			t.Fatalf("%s: cell %v = %v, want %v", context, i, got.Get(i), want.Get(i))
		}
	})
}

func TestDilateMatchesPerCellStamp(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// One scratch across every call: fields of different sizes must
	// not see each other's staging data.
	var s DilateScratch
	for k, f := range refFields(rng) {
		for r := 0; r <= 3; r++ {
			want := refDilate(f, r)
			sameFlags(t, want, f.Dilate(r, &s), "Dilate with scratch")
			sameFlags(t, want, f.Dilate(r, nil), "Dilate without scratch")
			if r == 0 && f.Dilate(0, &s) == f {
				t.Fatalf("field %d: Dilate(0) must return a copy", k)
			}
		}
	}
}

func TestSignaturesMatchMultiScan(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for k, f := range refFields(rng) {
		s := f.Box.Shape()
		buf := make([]int, s[0]+s[1]+s[2])
		// Sub-boxes, as the recursion visits them.
		for trial := 0; trial < 8; trial++ {
			b := f.Box
			for d := 0; d < geom.Dims; d++ {
				lo := b.Lo[d] + rng.Intn(s[d])
				b.Lo[d], b.Hi[d] = lo, lo+rng.Intn(b.Hi[d]-lo+1)
			}
			sig := f.signatures(b, buf)
			for d := 0; d < geom.Dims; d++ {
				if want := refSignature(f, b, d); !slices.Equal(sig[d], want) {
					t.Fatalf("field %d box %v: signature %d = %v, want %v", k, b, d, sig[d], want)
				}
			}
			tb, tsig, n := shrinkWrap(b, sig)
			if want := refBoundingBox(f, b); tb != want {
				t.Fatalf("field %d box %v: shrink-wrap %v, want %v", k, b, tb, want)
			}
			if want := refCountIn(f, b); n != want || f.CountIn(b) != want {
				t.Fatalf("field %d box %v: count %d (CountIn %d), want %d", k, b, n, f.CountIn(b), want)
			}
			if n == 0 {
				continue
			}
			for d := 0; d < geom.Dims; d++ {
				if want := refSignature(f, tb, d); !slices.Equal(tsig[d], want) {
					t.Fatalf("field %d box %v: trimmed signature %d = %v, want %v", k, tb, d, tsig[d], want)
				}
			}
		}
		if got, want := f.BoundingBox(f.Box), refBoundingBox(f, f.Box); got != want {
			t.Fatalf("field %d: BoundingBox %v, want %v", k, got, want)
		}
	}
}

func TestClusterMatchesMultiScan(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	params := []Params{
		DefaultParams(),
		{MinEfficiency: 0.9, MaxSize: 6, MinSize: 1},
		{MinEfficiency: 0.5, MinSize: 3, MaxDepth: 4},
	}
	for k, f := range refFields(rng) {
		for _, r := range []int{0, 1} {
			g := f.Dilate(r, nil)
			for _, p := range params {
				got, want := Cluster(g, p), refCluster(g, p)
				if len(got) != len(want) {
					t.Fatalf("field %d r=%d %+v: %d boxes, want %d", k, r, p, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("field %d r=%d %+v: box %d = %v, want %v", k, r, p, i, got[i], want[i])
					}
				}
			}
		}
	}
}
