package amr

import (
	"math"
	"slices"

	"samrdlb/internal/cluster"
	"samrdlb/internal/geom"
	"samrdlb/internal/grid"
)

// RegridParams controls hierarchy reconstruction.
type RegridParams struct {
	// Cluster are the Berger–Rigoutsos parameters.
	Cluster cluster.Params
	// Buffer expands every flagged cell by this Chebyshev radius
	// before clustering, so features stay inside their fine grids for
	// a few steps between regrids.
	Buffer int
	// Coalesce merges adjacent child pieces of the same parent into
	// single grids, trading fewer (larger) grids against balancing
	// granularity.
	Coalesce bool
}

// DefaultRegridParams returns typical SAMR regrid settings.
func DefaultRegridParams() RegridParams {
	return RegridParams{Cluster: cluster.DefaultParams(), Buffer: 1}
}

// Flagger marks the level-l cells needing refinement. The flag field
// spans the bounding box of level l's grids; implementations flag via
// f.Set / f.SetWhere and may consult the hierarchy's patch data.
type Flagger func(level int, f *cluster.FlagField)

// Placer chooses the owning processor for a newly created child grid.
// The distributed DLB places children in the parent's group; the
// parallel DLB spreads them over all processors.
type Placer func(childBox geom.Box, parent *Grid) int

// RegridAll rebuilds every level deeper than base: flags are gathered
// on each level in turn, clustered into boxes, intersected with the
// existing level's grids (enforcing proper nesting), refined, and
// instantiated as new child grids. Field data on new grids is
// initialised by prolongation from the coarse level and then
// overwritten with any old same-level data that overlaps, so the
// solution survives regridding. It returns the number of grids
// created.
func (h *Hierarchy) RegridAll(base int, flag Flagger, p RegridParams, place Placer) int {
	// Capture old fine grids for data copy before destroying them.
	old := make(map[int][]*Grid)
	for l := base + 1; l <= h.MaxLevel; l++ {
		old[l] = append([]*Grid(nil), h.Grids(l)...)
	}
	h.ClearLevelsFrom(base + 1)

	created := 0
	for l := base; l < h.MaxLevel; l++ {
		if len(h.Grids(l)) == 0 {
			break
		}
		f := h.FlagFieldFor(l)
		if f == nil {
			break
		}
		flag(l, f)
		if f.Count() == 0 {
			break
		}
		buffered := bufferFlags(f, p.Buffer, &h.dilate)
		boxes := cluster.Cluster(buffered, p.Cluster)
		lookup := newBoxIndex(boxes)
		madeAny := false
		// Children are created sequentially (AddGrid mutates the
		// hierarchy) but their data is initialised afterwards in one
		// parallel batch: each init writes only its own child's patch
		// and reads only coarse and old same-level patches, none of
		// which a sibling init writes.
		var pending []*Grid
		var cand []int
		var pieces geom.BoxList
		for _, parent := range h.Grids(l) {
			cand = lookup.overlaps(cand[:0], parent.Box)
			pieces = pieces[:0]
			for _, i := range cand {
				pieces = append(pieces, boxes[i].Intersect(parent.Box))
			}
			if p.Coalesce {
				pieces = pieces.Coalesce()
				pieces.SortByLo()
			}
			for _, piece := range pieces {
				childBox := piece.Refine(h.RefFactor)
				owner := parent.Owner
				if place != nil {
					owner = place(childBox, parent)
				}
				child := h.AddGrid(l+1, childBox, owner, parent.ID)
				created++
				madeAny = true
				if h.WithData {
					pending = append(pending, child)
				}
			}
		}
		if len(pending) > 0 {
			coarse := newGridIndex(h.Grids(l), h.RefFactor)
			oldL := newGridIndex(old[l+1], 1)
			if h.pool != nil && h.pool.Workers() > 1 && len(pending) > 1 {
				h.pool.ForEach(len(pending), func(i int) {
					h.initChildData(pending[i], coarse, oldL)
				})
			} else {
				for _, child := range pending {
					h.initChildData(child, coarse, oldL)
				}
			}
		}
		if !madeAny {
			break
		}
		h.SortLevel(l + 1)
	}
	return created
}

// initChildData fills a new child grid by prolongation from every
// overlapping coarse grid, then copies old same-level data where it
// exists (the old solution is more accurate than prolonged data).
// coarse indexes the parent level with boxes refined to the child's
// level, oldSameLevel the child level's grids from before the regrid.
// Safe to run concurrently for distinct children: it writes only the
// child's own patch.
func (h *Hierarchy) initChildData(child *Grid, coarse, oldSameLevel gridIndex) {
	grown := child.Patch.Grown()
	var buf [16]int
	for _, i := range coarse.boxes.overlaps(buf[:0], grown) {
		if c := coarse.grids[i]; c.Patch != nil {
			region := grown.Intersect(coarse.boxes.boxes[i])
			for _, f := range h.Fields {
				grid.Prolong(child.Patch, c.Patch, f, h.RefFactor, region)
			}
		}
	}
	for _, i := range oldSameLevel.boxes.overlaps(buf[:0], grown) {
		if og := oldSameLevel.grids[i]; og.Patch != nil {
			region := grown.Intersect(og.Box)
			for _, f := range h.Fields {
				grid.CopyRegion(child.Patch, og.Patch, f, region)
			}
		}
	}
}

// bufferFlags returns a flag field where every flag of f is expanded
// by the given Chebyshev radius (clipped to f's box), staging the
// dilation through s. A non-positive radius returns f itself.
func bufferFlags(f *cluster.FlagField, radius int, s *cluster.DilateScratch) *cluster.FlagField {
	if radius <= 0 {
		return f
	}
	return f.Dilate(radius, s)
}

// boxIndex answers "which boxes of a list overlap this box?" for the
// regridder: which clustered boxes cut a parent grid, and which coarse
// and old grids feed a new child's data. The boxes are bucketed on a
// uniform grid over their bounding box, about ∛n buckets per
// dimension as in the level indexes, so a query meets O(1) candidates
// instead of every box. Queries return list positions in ascending
// order, the order a scan of the whole list visits them, so grid
// creation order and IDs do not depend on the index. Queries only
// read the index and may run concurrently.
type boxIndex struct {
	boxes      geom.BoxList
	bound      geom.Box
	cell, dims geom.Index
	// The positions of the boxes touching bucket k are
	// entries[start[k]:start[k+1]], ascending.
	start   []int
	entries []int
}

func newBoxIndex(boxes geom.BoxList) *boxIndex {
	x := &boxIndex{boxes: boxes, bound: boxes.Bounding()}
	if x.bound.Empty() {
		return x
	}
	per := int(math.Cbrt(float64(len(boxes)))) + 1
	shape := x.bound.Shape()
	for d := 0; d < geom.Dims; d++ {
		x.cell[d] = (shape[d] + per - 1) / per
		x.dims[d] = (shape[d] + x.cell[d] - 1) / x.cell[d]
	}
	// Count each bucket's boxes, then place them into one flat array.
	x.start = make([]int, x.dims.Product()+1)
	for _, b := range boxes {
		x.forBuckets(b, func(k int) { x.start[k+1]++ })
	}
	for k := 1; k < len(x.start); k++ {
		x.start[k] += x.start[k-1]
	}
	x.entries = make([]int, x.start[len(x.start)-1])
	fill := slices.Clone(x.start[:len(x.start)-1])
	for i, b := range boxes {
		x.forBuckets(b, func(k int) {
			x.entries[fill[k]] = i
			fill[k]++
		})
	}
	return x
}

// forBuckets calls fn with every bucket b touches; b must overlap the
// bucketed region.
func (x *boxIndex) forBuckets(b geom.Box, fn func(k int)) {
	var lo, hi geom.Index
	for d := 0; d < geom.Dims; d++ {
		lo[d] = (max(b.Lo[d], x.bound.Lo[d]) - x.bound.Lo[d]) / x.cell[d]
		hi[d] = (min(b.Hi[d], x.bound.Hi[d]) - x.bound.Lo[d]) / x.cell[d]
	}
	for z := lo[2]; z <= hi[2]; z++ {
		for y := lo[1]; y <= hi[1]; y++ {
			for bx := lo[0]; bx <= hi[0]; bx++ {
				fn(bx + x.dims[0]*(y+x.dims[1]*z))
			}
		}
	}
}

// overlaps appends to dst, in ascending order, the list positions of
// the boxes that share a cell with b.
func (x *boxIndex) overlaps(dst []int, b geom.Box) []int {
	if !b.Intersects(x.bound) {
		return dst
	}
	start := len(dst)
	x.forBuckets(b, func(k int) {
		for _, i := range x.entries[x.start[k]:x.start[k+1]] {
			if !x.boxes[i].Intersects(b) {
				continue
			}
			// Insert in order, once: a box spanning several buckets
			// turns up in each.
			if j, dup := slices.BinarySearch(dst[start:], i); !dup {
				dst = slices.Insert(dst, start+j, i)
			}
		}
	})
	return dst
}

// gridIndex is a boxIndex over a grid list, with each grid's box
// refined by a factor.
type gridIndex struct {
	grids []*Grid
	boxes *boxIndex
}

func newGridIndex(grids []*Grid, ref int) gridIndex {
	boxes := make(geom.BoxList, len(grids))
	for i, g := range grids {
		boxes[i] = g.Box.Refine(ref)
	}
	return gridIndex{grids: grids, boxes: newBoxIndex(boxes)}
}

// FlagWhereGradient flags every level-l cell whose solution gradient
// (max absolute one-sided difference of the named field over the
// three dimensions) exceeds the threshold — data-driven refinement,
// the criterion production SAMR codes use, as an alternative to the
// geometric schedules of the workload drivers. Only data-carrying
// hierarchies can use it.
func (h *Hierarchy) FlagWhereGradient(level int, field string, threshold float64, f *cluster.FlagField) {
	if !h.WithData {
		panic("amr.FlagWhereGradient: needs field data")
	}
	for _, g := range h.Grids(level) {
		q := g.Patch.Field(field)
		gb := g.Patch.Grown()
		s := gb.Shape()
		stride := [3]int{1, s[0], s[0] * s[1]}
		g.Box.ForEach(func(i geom.Index) {
			off := gb.Offset(i)
			for d := 0; d < 3; d++ {
				dv := q[off+stride[d]] - q[off]
				if dv < 0 {
					dv = -dv
				}
				if dv > threshold {
					f.Set(i)
					return
				}
				dv = q[off] - q[off-stride[d]]
				if dv < 0 {
					dv = -dv
				}
				if dv > threshold {
					f.Set(i)
					return
				}
			}
		})
	}
}
