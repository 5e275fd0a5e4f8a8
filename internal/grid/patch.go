// Package grid provides structured grid patches: rectangular blocks of
// cell-centred field data with ghost zones, plus the inter-patch
// transfer operators SAMR needs (copy-on-intersection, restriction
// from fine to coarse, prolongation from coarse to fine).
//
// A Patch stores one or more named fields over its grown (interior +
// ghost) box in x-fastest linear order. All operators are written
// against geom.Box index arithmetic so they work for any level and any
// patch placement.
package grid

import (
	"fmt"
	"math"
	"sort"

	"samrdlb/internal/geom"
)

// Patch is a rectangular block of cell-centred data on one refinement
// level. Fields are stored over the grown box (interior plus NGhost
// ghost cells on every side).
type Patch struct {
	// Box is the interior region owned by this patch, in level index
	// space.
	Box geom.Box
	// Level is the refinement level the patch lives on (0 = coarsest).
	Level int
	// NGhost is the ghost-zone width on each side.
	NGhost int

	names  []string
	fields map[string][]float64
}

// NewPatch allocates a patch with the given interior box, level, ghost
// width, and named fields (all zero-initialised).
func NewPatch(box geom.Box, level, nghost int, fieldNames ...string) *Patch {
	if box.Empty() {
		panic(fmt.Sprintf("grid.NewPatch: empty box %v", box))
	}
	if nghost < 0 {
		panic("grid.NewPatch: negative ghost width")
	}
	p := &Patch{
		Box:    box,
		Level:  level,
		NGhost: nghost,
		fields: make(map[string][]float64, len(fieldNames)),
	}
	n := int(box.Grow(nghost).NumCells())
	for _, name := range fieldNames {
		if _, dup := p.fields[name]; dup {
			panic("grid.NewPatch: duplicate field " + name)
		}
		p.fields[name] = make([]float64, n)
		p.names = append(p.names, name)
	}
	sort.Strings(p.names)
	return p
}

// Grown returns the interior box expanded by the ghost width — the
// region actually backed by storage.
func (p *Patch) Grown() geom.Box { return p.Box.Grow(p.NGhost) }

// FieldNames returns the patch's field names in sorted order.
func (p *Patch) FieldNames() []string {
	out := make([]string, len(p.names))
	copy(out, p.names)
	return out
}

// NumFields returns the number of fields stored on the patch.
func (p *Patch) NumFields() int { return len(p.names) }

// Field returns the raw storage for a named field (over the grown
// box). It panics on unknown names: field sets are fixed at
// construction and a miss is a programming error.
func (p *Patch) Field(name string) []float64 {
	f, ok := p.fields[name]
	if !ok {
		panic("grid: unknown field " + name)
	}
	return f
}

// HasField reports whether the patch carries the named field.
func (p *Patch) HasField(name string) bool {
	_, ok := p.fields[name]
	return ok
}

// At returns field value at cell i (which must lie in the grown box).
func (p *Patch) At(name string, i geom.Index) float64 {
	return p.Field(name)[p.Grown().Offset(i)]
}

// Set stores v at cell i of the named field.
func (p *Patch) Set(name string, i geom.Index, v float64) {
	p.Field(name)[p.Grown().Offset(i)] = v
}

// FillConstant sets every cell (including ghosts) of the field to v.
func (p *Patch) FillConstant(name string, v float64) {
	f := p.Field(name)
	for i := range f {
		f[i] = v
	}
}

// FillFunc evaluates fn at every cell of the grown box and stores the
// result in the named field.
func (p *Patch) FillFunc(name string, fn func(geom.Index) float64) {
	f := p.Field(name)
	g := p.Grown()
	g.ForEach(func(i geom.Index) {
		f[g.Offset(i)] = fn(i)
	})
}

// Sum returns the sum of the field over the interior box only.
func (p *Patch) Sum(name string) float64 {
	f := p.Field(name)
	g := p.Grown()
	var s float64
	p.Box.ForEach(func(i geom.Index) {
		s += f[g.Offset(i)]
	})
	return s
}

// MaxAbs returns the maximum absolute value over the interior.
func (p *Patch) MaxAbs(name string) float64 {
	f := p.Field(name)
	g := p.Grown()
	var m float64
	p.Box.ForEach(func(i geom.Index) {
		if v := math.Abs(f[g.Offset(i)]); v > m {
			m = v
		}
	})
	return m
}

// L2Norm returns the root-mean-square of the field over the interior.
func (p *Patch) L2Norm(name string) float64 {
	f := p.Field(name)
	g := p.Grown()
	var s float64
	p.Box.ForEach(func(i geom.Index) {
		v := f[g.Offset(i)]
		s += v * v
	})
	return math.Sqrt(s / float64(p.Box.NumCells()))
}

// Clone returns a deep copy of the patch.
func (p *Patch) Clone() *Patch {
	q := NewPatch(p.Box, p.Level, p.NGhost, p.names...)
	for _, name := range p.names {
		copy(q.fields[name], p.fields[name])
	}
	return q
}

// Bytes returns the in-memory size of the patch's field data, the
// quantity that matters for migration cost modelling.
func (p *Patch) Bytes() int64 {
	return p.Grown().NumCells() * int64(len(p.names)) * 8
}

// CopyRegion copies the named field over region (in level index space)
// from src to dst. The region is clipped to both patches' grown boxes,
// so callers may pass the nominal overlap and let clipping handle
// ghosts. Both patches must be on the same level. Rows are moved with
// copy() — this is the hot operation of the ghost-exchange plan.
func CopyRegion(dst, src *Patch, name string, region geom.Box) {
	if dst.Level != src.Level {
		panic("grid.CopyRegion: level mismatch")
	}
	dg, sg := dst.Grown(), src.Grown()
	r := region.Intersect(dg).Intersect(sg)
	if r.Empty() {
		return
	}
	df, sf := dst.Field(name), src.Field(name)
	dplane, dsy, dsz := layout(dg, r.Lo)
	splane, ssy, ssz := layout(sg, r.Lo)
	n := r.Hi[0] - r.Lo[0] + 1
	for z := r.Lo[2]; z <= r.Hi[2]; z++ {
		do, so := dplane, splane
		for y := r.Lo[1]; y <= r.Hi[1]; y++ {
			copy(df[do:do+n], sf[so:so+n])
			do += dsy
			so += ssy
		}
		dplane += dsz
		splane += ssz
	}
}

// layout returns the offset of cell i in field storage over box g (as
// g.Offset(i)) and the storage's y and z strides: stepping one cell in
// y or z moves the offset by sy or sz. The kernels take a region's
// base offset once and walk its rows by these increments instead of
// recomputing Offset per row.
func layout(g geom.Box, i geom.Index) (off, sy, sz int) {
	sy = g.Hi[0] - g.Lo[0] + 1
	sz = sy * (g.Hi[1] - g.Lo[1] + 1)
	return (i[0] - g.Lo[0]) + sy*(i[1]-g.Lo[1]) + sz*(i[2]-g.Lo[2]), sy, sz
}

// ClampRegion fills the named field over region by copying, for every
// cell, the value at the cell's per-component clamp into the src box —
// the outflow (nearest-interior) boundary condition. Each row splits
// into at most three segments: a constant run left of src, a straight
// copy of the clamped source row, and a constant run right of src.
// The region is clipped to the patch's grown box; src must be inside
// it.
func ClampRegion(p *Patch, name string, region, src geom.Box) {
	g := p.Grown()
	reg := region.Intersect(g)
	if reg.Empty() {
		return
	}
	f := p.Field(name)
	dplane, sy, sz := layout(g, reg.Lo)
	// Cells left and right of src, and the x-range they share with it.
	x1, x0 := min(reg.Hi[0], src.Lo[0]-1), max(reg.Lo[0], src.Hi[0]+1)
	m0, m1 := max(reg.Lo[0], src.Lo[0]), min(reg.Hi[0], src.Hi[0])
	for z := reg.Lo[2]; z <= reg.Hi[2]; z++ {
		// srow + x is the offset of cell x of the clamped source row.
		srcPlane := (clampInt(z, src.Lo[2], src.Hi[2])-g.Lo[2])*sz - g.Lo[0]
		drow := dplane
		for y := reg.Lo[1]; y <= reg.Hi[1]; y++ {
			srow := srcPlane + (clampInt(y, src.Lo[1], src.Hi[1])-g.Lo[1])*sy
			do := drow
			// Left of src: constant value of src's low-x column.
			if x1 >= reg.Lo[0] {
				v := f[srow+src.Lo[0]]
				for x := reg.Lo[0]; x <= x1; x++ {
					f[do] = v
					do++
				}
			}
			// Inside src's x-range: copy the clamped row.
			if m0 <= m1 {
				n := m1 - m0 + 1
				copy(f[do:do+n], f[srow+m0:srow+m0+n])
				do += n
			}
			// Right of src: constant value of src's high-x column.
			if x0 <= reg.Hi[0] {
				v := f[srow+src.Hi[0]]
				for x := x0; x <= reg.Hi[0]; x++ {
					f[do] = v
					do++
				}
			}
			drow += sy
		}
		dplane += sz
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Restrict averages the fine patch's field over each coarse cell of
// the overlap and stores it into the coarse patch. The refinement
// factor r relates the two levels (fine.Level = coarse.Level+1). The
// loops are explicit but accumulate in exactly the closure-based
// original's order, so results are bit-identical to it.
func Restrict(coarse, fine *Patch, name string, r int) {
	if fine.Level != coarse.Level+1 {
		panic("grid.Restrict: fine must be exactly one level finer")
	}
	overlap := coarse.Box.Intersect(fine.Box.Coarsen(r))
	if overlap.Empty() {
		return
	}
	cf, ff := coarse.Field(name), fine.Field(name)
	cg, fg := coarse.Grown(), fine.Grown()
	cplane, csy, csz := layout(cg, overlap.Lo)
	_, fsy, fsz := layout(fg, fg.Lo)
	fb := fine.Box
	inv := 1.0 / float64(r*r*r)
	r3 := float64(r * r * r)
	for cz := overlap.Lo[2]; cz <= overlap.Hi[2]; cz++ {
		// The fine cells under coarse cell c, clipped to the fine box.
		z0, z1 := max(cz*r, fb.Lo[2]), min(cz*r+r-1, fb.Hi[2])
		co := cplane
		for cy := overlap.Lo[1]; cy <= overlap.Hi[1]; cy++ {
			y0, y1 := max(cy*r, fb.Lo[1]), min(cy*r+r-1, fb.Hi[1])
			// frow + x is the offset of fine cell (x, y0, z0).
			frow := (y0-fg.Lo[1])*fsy + (z0-fg.Lo[2])*fsz - fg.Lo[0]
			for cx := overlap.Lo[0]; cx <= overlap.Hi[0]; cx++ {
				x0, x1 := max(cx*r, fb.Lo[0]), min(cx*r+r-1, fb.Hi[0])
				n := x1 - x0 + 1
				var s float64
				fplane := frow + x0
				for fz := z0; fz <= z1; fz++ {
					fo := fplane
					for fy := y0; fy <= y1; fy++ {
						for _, v := range ff[fo : fo+n] {
							s += v
						}
						fo += fsy
					}
					fplane += fsz
				}
				cf[co+cx-overlap.Lo[0]] = s * inv * r3 / float64(n*(y1-y0+1)*(z1-z0+1))
			}
			co += csy
		}
		cplane += csz
	}
}

// Prolong fills the fine patch's field over region (fine index space)
// by piecewise-constant injection from the coarse patch. Used to
// initialise newly created fine grids and to fill fine ghost cells
// that have no same-level neighbour. Fine cells whose coarse parent
// falls outside the coarse patch's grown box are left untouched
// (handled by clipping the region to the coarse footprint up front,
// so the row loops need no per-cell containment check).
func Prolong(fine, coarse *Patch, name string, r int, region geom.Box) {
	if fine.Level != coarse.Level+1 {
		panic("grid.Prolong: fine must be exactly one level finer")
	}
	cg, fg := coarse.Grown(), fine.Grown()
	// f.FloorDiv(r) ∈ cg  ⟺  f ∈ cg.Refine(r), so the clip below is
	// exactly the original per-cell cg.Contains test.
	reg := region.Intersect(fg).Intersect(cg.Refine(r))
	if reg.Empty() {
		return
	}
	cf, ff := coarse.Field(name), fine.Field(name)
	_, csy, csz := layout(cg, cg.Lo)
	fplane, fsy, fsz := layout(fg, reg.Lo)
	n := reg.Hi[0] - reg.Lo[0] + 1
	cx := floorDiv(reg.Lo[0], r)
	rem0 := reg.Lo[0] - cx*r // position within the coarse cell, in [0,r)
	for fz := reg.Lo[2]; fz <= reg.Hi[2]; fz++ {
		cplane := (cx - cg.Lo[0]) + (floorDiv(fz, r)-cg.Lo[2])*csz
		frow := fplane
		for fy := reg.Lo[1]; fy <= reg.Hi[1]; fy++ {
			co := cplane + (floorDiv(fy, r)-cg.Lo[1])*csy
			rem := rem0
			for fo := frow; fo < frow+n; fo++ {
				ff[fo] = cf[co]
				rem++
				if rem == r {
					rem = 0
					co++
				}
			}
			frow += fsy
		}
		fplane += fsz
	}
}

// floorDiv is floored integer division for positive divisors (ghost
// indices can be negative).
func floorDiv(a, r int) int {
	q := a / r
	if a%r != 0 && a < 0 {
		q--
	}
	return q
}

// ProlongLinear fills the fine patch's field over region (fine index
// space) by trilinear interpolation of the coarse patch — the
// higher-order prolongation multigrid needs for textbook convergence
// rates. Coarse values are read cell-centred; fine cells whose
// interpolation stencil leaves the coarse patch's grown box fall back
// to piecewise-constant injection.
func ProlongLinear(fine, coarse *Patch, name string, r int, region geom.Box) {
	if fine.Level != coarse.Level+1 {
		panic("grid.ProlongLinear: fine must be exactly one level finer")
	}
	reg := region.Intersect(fine.Grown())
	if reg.Empty() {
		return
	}
	cf, ff := coarse.Field(name), fine.Field(name)
	cg, fg := coarse.Grown(), fine.Grown()
	rf := float64(r)
	reg.ForEach(func(f geom.Index) {
		// Fine cell centre in coarse cell-centred coordinates.
		var base geom.Index
		var w [3]float64
		ok := true
		for d := 0; d < 3; d++ {
			x := (float64(f[d])+0.5)/rf - 0.5
			lo := int(x)
			if x < 0 {
				lo = -1
			}
			if float64(lo) > x {
				lo--
			}
			base[d] = lo
			w[d] = x - float64(lo)
		}
		hi := base.Add(geom.Index{1, 1, 1})
		if !cg.Contains(base) || !cg.Contains(hi) {
			c := f.FloorDiv(r)
			if cg.Contains(c) {
				ff[fg.Offset(f)] = cf[cg.Offset(c)]
			}
			ok = false
		}
		if !ok {
			return
		}
		var v float64
		for dz := 0; dz < 2; dz++ {
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					c := base.Add(geom.Index{dx, dy, dz})
					weight := lerpW(w[0], dx) * lerpW(w[1], dy) * lerpW(w[2], dz)
					v += weight * cf[cg.Offset(c)]
				}
			}
		}
		ff[fg.Offset(f)] = v
	})
}

func lerpW(w float64, side int) float64 {
	if side == 1 {
		return w
	}
	return 1 - w
}
