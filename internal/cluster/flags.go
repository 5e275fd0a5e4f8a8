// Package cluster implements the Berger–Rigoutsos point-clustering
// algorithm used by SAMR regridding: given a field of flagged cells
// (cells that need finer resolution), produce a small set of
// rectangular boxes that cover every flagged cell with at least a
// target fill efficiency.
//
// The implementation follows Berger & Rigoutsos, "An algorithm for
// point clustering and grid generation" (IEEE Trans. SMC 21(5), 1991):
// compute per-dimension signatures (flag counts per plane), cut first
// at holes (zero-signature planes), then at the strongest inflection
// point of the discrete Laplacian of the signature, and otherwise
// bisect; recurse until every box is efficient enough or at minimum
// size.
package cluster

import (
	"fmt"

	"samrdlb/internal/geom"
)

// FlagField is a boolean field over a box marking cells that need
// refinement.
type FlagField struct {
	Box   geom.Box
	flags []bool
	count int
}

// NewFlagField returns an all-clear flag field over the box.
func NewFlagField(box geom.Box) *FlagField {
	if box.Empty() {
		panic(fmt.Sprintf("cluster.NewFlagField: empty box %v", box))
	}
	return &FlagField{Box: box, flags: make([]bool, box.NumCells())}
}

// Set flags the cell i. Cells outside the field's box are ignored,
// which lets callers flag from predicates without clipping.
func (f *FlagField) Set(i geom.Index) {
	if !f.Box.Contains(i) {
		return
	}
	off := f.Box.Offset(i)
	if !f.flags[off] {
		f.flags[off] = true
		f.count++
	}
}

// Clear unflags the cell i (no-op outside the box).
func (f *FlagField) Clear(i geom.Index) {
	if !f.Box.Contains(i) {
		return
	}
	off := f.Box.Offset(i)
	if f.flags[off] {
		f.flags[off] = false
		f.count--
	}
}

// Get reports whether cell i is flagged (false outside the box).
func (f *FlagField) Get(i geom.Index) bool {
	if !f.Box.Contains(i) {
		return false
	}
	return f.flags[f.Box.Offset(i)]
}

// Count returns the number of flagged cells.
func (f *FlagField) Count() int { return f.count }

// CountIn returns the number of flagged cells inside the box b.
func (f *FlagField) CountIn(b geom.Box) int {
	b = b.Intersect(f.Box)
	if b.Empty() {
		return 0
	}
	n := 0
	f.scanRows(b, func(off, width int, _, _ int) {
		for x := 0; x < width; x++ {
			if f.flags[off+x] {
				n++
			}
		}
	})
	return n
}

// scanRows calls fn once per x-row of box b (which must lie within
// f.Box), passing the starting offset into f.flags, the row width,
// and the row's y and z coordinates. It avoids per-cell Offset
// arithmetic in the hot clustering loops.
func (f *FlagField) scanRows(b geom.Box, fn func(off, width, y, z int)) {
	s := f.Box.Shape()
	width := b.Hi[0] - b.Lo[0] + 1
	for z := b.Lo[2]; z <= b.Hi[2]; z++ {
		for y := b.Lo[1]; y <= b.Hi[1]; y++ {
			off := (b.Lo[0] - f.Box.Lo[0]) + s[0]*((y-f.Box.Lo[1])+s[1]*(z-f.Box.Lo[2]))
			fn(off, width, y, z)
		}
	}
}

// SetWhere flags every cell of the field's box for which pred returns
// true and returns the number of newly flagged cells.
func (f *FlagField) SetWhere(pred func(geom.Index) bool) int {
	added := 0
	f.scanRows(f.Box, func(off, width, y, z int) {
		for x := 0; x < width; x++ {
			if pred(geom.Index{f.Box.Lo[0] + x, y, z}) && !f.flags[off+x] {
				f.flags[off+x] = true
				f.count++
				added++
			}
		}
	})
	return added
}

// BoundingBox returns the smallest box containing every flagged cell
// inside b (empty box when there are none).
func (f *FlagField) BoundingBox(b geom.Box) geom.Box {
	b = b.Intersect(f.Box)
	if b.Empty() {
		return emptyBox
	}
	s := b.Shape()
	bb, _, _ := shrinkWrap(b, f.signatures(b, make([]int, s[0]+s[1]+s[2])))
	return bb
}

var emptyBox = geom.Box{Lo: geom.Index{0, 0, 0}, Hi: geom.Index{-1, -1, -1}}

// signatures returns the three Berger–Rigoutsos signatures of box b
// (which must lie within f.Box) from one scan of its rows: sig[d]
// counts the flagged cells of each plane perpendicular to dimension d,
// entry k counting plane b.Lo[d]+k. The slices are carved from buf,
// which must hold at least the sum of b's extents.
func (f *FlagField) signatures(b geom.Box, buf []int) (sig [geom.Dims][]int) {
	s := b.Shape()
	buf = buf[:s[0]+s[1]+s[2]]
	clear(buf)
	sig[0], sig[1], sig[2] = buf[:s[0]], buf[s[0]:s[0]+s[1]], buf[s[0]+s[1]:]
	sx, sy, sz := sig[0], sig[1], sig[2]
	f.scanRows(b, func(off, width, y, z int) {
		n := 0
		for x, v := range f.flags[off : off+width] {
			if v {
				sx[x]++
				n++
			}
		}
		sy[y-b.Lo[1]] += n
		sz[z-b.Lo[2]] += n
	})
	return sig
}

// shrinkWrap trims box b to the flags inside it using b's signatures:
// the first and last nonzero plane of each dimension bound the flags.
// Trimming drops only empty planes, so the other dimensions' plane
// counts are unchanged and the trimmed box's signatures are sub-slices
// of sig. It returns the trimmed box, its signatures and its flag
// count; a box without flags yields an empty box and count 0.
func shrinkWrap(b geom.Box, sig [geom.Dims][]int) (geom.Box, [geom.Dims][]int, int) {
	n := 0
	for _, c := range sig[0] {
		n += c
	}
	if n == 0 {
		return emptyBox, sig, 0
	}
	for d := 0; d < geom.Dims; d++ {
		s := sig[d]
		lo, hi := 0, len(s)-1
		for s[lo] == 0 {
			lo++
		}
		for s[hi] == 0 {
			hi--
		}
		sig[d] = s[lo : hi+1]
		b.Hi[d] = b.Lo[d] + hi
		b.Lo[d] += lo
	}
	return b, sig, n
}

// DilateScratch is the buffer Dilate reuses across calls. The zero
// value is ready to use; one scratch must not serve two dilations at
// once.
type DilateScratch struct{ ring []bool }

// Dilate returns a new field in which every flag of f is expanded by
// the Chebyshev radius r and clipped to f.Box: a cell is flagged when
// some flag of f lies within r of it in every dimension. The clipped
// (2r+1)³ cube is the product of three clipped intervals, so the
// dilation is separable and runs as three row-wise passes: x within
// each row from f into the result, then y OR-ing rows and z OR-ing
// planes in place. The in-place passes keep the originals of the
// lines they have overwritten in r+1 planes of scratch from s (nil
// allocates them), so a warm call allocates only its result. For
// r <= 0 the result is a copy of f.
func (f *FlagField) Dilate(r int, s *DilateScratch) *FlagField {
	out := NewFlagField(f.Box)
	if r <= 0 || f.count == 0 {
		copy(out.flags, f.flags)
		out.count = f.count
		return out
	}
	if s == nil {
		s = new(DilateScratch)
	}
	sh := f.Box.Shape()
	nx, plane := sh[0], sh[0]*sh[1]
	if cap(s.ring) < (r+1)*plane {
		s.ring = make([]bool, (r+1)*plane)
	}
	n := len(f.flags)
	for off := 0; off < n; off += nx {
		dilateRow(out.flags[off:off+nx], f.flags[off:off+nx], r)
	}
	for off := 0; off < n; off += plane {
		orWindow(out.flags[off:off+plane], nx, r, s.ring)
	}
	orWindow(out.flags, plane, r, s.ring)
	for _, v := range out.flags {
		if v {
			out.count++
		}
	}
	return out
}

// dilateRow sets dst[x] when src holds a flag within r of x. last
// tracks the rightmost flag at or before x+r.
func dilateRow(dst, src []bool, r int) {
	n := len(src)
	last := -r - 1
	for j := 0; j < min(r, n); j++ {
		if src[j] {
			last = j
		}
	}
	for x := range dst {
		if j := x + r; j < n && src[j] {
			last = j
		}
		dst[x] = last >= x-r
	}
}

// orWindow views buf as consecutive lines of w cells and sets each
// line, in place, to the OR of the original lines within r of it.
// Lines after the current one are still original; ring, (r+1)·w
// cells, keeps the originals of the current line and the r before it,
// line j in slot j mod (r+1).
func orWindow(buf []bool, w, r int, ring []bool) {
	m := len(buf) / w
	slot := func(j int) []bool { return ring[(j%(r+1))*w : (j%(r+1)+1)*w] }
	for k := 0; k < m; k++ {
		line := buf[k*w : (k+1)*w]
		copy(slot(k), line)
		for j := max(k-r, 0); j < k; j++ {
			orInto(line, slot(j))
		}
		for j := k + 1; j <= min(k+r, m-1); j++ {
			orInto(line, buf[j*w:(j+1)*w])
		}
	}
}

func orInto(dst, src []bool) {
	for i, v := range src {
		if v {
			dst[i] = true
		}
	}
}
