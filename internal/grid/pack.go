package grid

import (
	"fmt"

	"samrdlb/internal/geom"
)

// PackRegion serializes the named fields of p over region into a flat
// slice (field-major, then offset order within the region). The
// region must lie within the patch's grown box — both sides of a
// message must agree on the exact cell set.
func PackRegion(p *Patch, region geom.Box, fields []string) []float64 {
	g := p.Grown()
	if !g.ContainsBox(region) {
		panic(fmt.Sprintf("grid.PackRegion: region %v escapes patch %v", region, g))
	}
	n := int(region.NumCells())
	out := make([]float64, 0, n*len(fields))
	for _, name := range fields {
		f := p.Field(name)
		forRows(g, region, func(off, nx int) {
			out = append(out, f[off:off+nx]...)
		})
	}
	return out
}

// UnpackRegion writes data produced by PackRegion with the same
// region and field list into p.
func UnpackRegion(p *Patch, region geom.Box, fields []string, data []float64) {
	g := p.Grown()
	if !g.ContainsBox(region) {
		panic(fmt.Sprintf("grid.UnpackRegion: region %v escapes patch %v", region, g))
	}
	n := int(region.NumCells())
	if len(data) != n*len(fields) {
		panic(fmt.Sprintf("grid.UnpackRegion: got %d values for %d cells × %d fields",
			len(data), n, len(fields)))
	}
	k := 0
	for _, name := range fields {
		f := p.Field(name)
		forRows(g, region, func(off, nx int) {
			k += copy(f[off:off+nx], data[k:k+nx])
		})
	}
}

// forRows calls fn with the storage offset and width of every x-row of
// region, a box within g, in Offset order.
func forRows(g, region geom.Box, fn func(off, nx int)) {
	if region.Empty() {
		return
	}
	plane, sy, sz := layout(g, region.Lo)
	nx := region.Hi[0] - region.Lo[0] + 1
	for z := region.Lo[2]; z <= region.Hi[2]; z++ {
		off := plane
		for y := region.Lo[1]; y <= region.Hi[1]; y++ {
			fn(off, nx)
			off += sy
		}
		plane += sz
	}
}
