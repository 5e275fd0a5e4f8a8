package amr

import (
	"math/rand"
	"slices"
	"testing"

	"samrdlb/internal/cluster"
	"samrdlb/internal/geom"
)

// TestBoxIndexMatchesScan pins the bucketed overlap lookup to the scan
// it replaced: every parent gets the same overlapping boxes in the same
// order as intersecting it with each clustered box in turn.
func TestBoxIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		f := cluster.NewFlagField(geom.Box{Lo: geom.Index{-8, -3, 0}, Hi: geom.Index{23, 28, 17}})
		for k := 0; k < 1+rng.Intn(8); k++ {
			c := f.Box.Lo.Add(geom.Index{rng.Intn(32), rng.Intn(32), rng.Intn(18)})
			s := rng.Intn(5)
			geom.Box{Lo: c.Sub(geom.Index{s, s, s}), Hi: c.Add(geom.Index{s, 1, s})}.
				Intersect(f.Box).ForEach(f.Set)
		}
		p := cluster.DefaultParams()
		p.MaxSize = 1 + rng.Intn(8)
		boxes := cluster.Cluster(f, p)
		if trial%2 == 1 {
			// Overlapping boxes of any size, as grid lists refine to.
			boxes = nil
			for k := 0; k < rng.Intn(30); k++ {
				boxes = append(boxes, randomRegion(rng, f.Box))
			}
		}
		x := newBoxIndex(boxes)
		for q := 0; q < 50; q++ {
			parent := randomRegion(rng, f.Box.Grow(2))
			var want []int
			for i, b := range boxes {
				if b.Intersects(parent) {
					want = append(want, i)
				}
			}
			// A non-empty dst must be kept and appended to.
			if got := x.overlaps([]int{-1}, parent); !slices.Equal(got, append([]int{-1}, want...)) {
				t.Fatalf("trial %d parent %v: overlaps %v, want %v", trial, parent, got[1:], want)
			}
		}
	}
	if got := newBoxIndex(nil).overlaps(nil, geom.UnitCube(4)); len(got) != 0 {
		t.Fatalf("empty index gave overlaps %v", got)
	}
}

func randomRegion(rng *rand.Rand, b geom.Box) geom.Box {
	var r geom.Box
	for d := 0; d < geom.Dims; d++ {
		s := b.Shape()[d]
		lo := rng.Intn(s)
		r.Lo[d], r.Hi[d] = b.Lo[d]+lo, b.Lo[d]+lo+rng.Intn(s-lo)
	}
	return r
}
