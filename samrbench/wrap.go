package main

import (
	"samrdlb/internal/amr"
	"samrdlb/internal/cluster"
	"samrdlb/internal/dlb"
	"samrdlb/internal/geom"
	"samrdlb/internal/grid"
	"samrdlb/internal/solver"
	"samrdlb/internal/workload"
)

// The decorators below time the calls the engine makes through the
// workload.Driver, solver.Kernel and dlb.Balancer interfaces. Methods
// they do not time are forwarded by embedding, so Name, Fields,
// FlopsPerCell, Particles and the rest answer exactly as the wrapped
// value does; a kernel that implements solver.FluxedKernel is wrapped
// by a type that implements it too, and one that does not, by a type
// that does not.

// kernelNames are the kernels the workloads step, in metric order.
var kernelNames = []string{"advection3d-upwind", "gauss-seidel-poisson"}

type tracedDriver struct {
	workload.Driver
	tr      *tracer
	kernels []solver.Kernel
}

func wrapDriver(d workload.Driver, tr *tracer) *tracedDriver {
	inner := d.Kernels()
	ks := make([]solver.Kernel, len(inner))
	for i, k := range inner {
		ks[i] = wrapKernel(k, tr)
	}
	return &tracedDriver{Driver: d, tr: tr, kernels: ks}
}

func (d *tracedDriver) Kernels() []solver.Kernel { return d.kernels }

func (d *tracedDriver) Flag(level int, t float64, f *cluster.FlagField) {
	start := d.tr.now()
	d.Driver.Flag(level, t, f)
	d.tr.layer(spanFlag, start, "", 0)
}

func (d *tracedDriver) InitialCondition(p *grid.Patch, dx float64) {
	start := d.tr.now()
	d.Driver.InitialCondition(p, dx)
	d.tr.layer(spanInit, start, "", 0)
}

type tracedKernel struct {
	solver.Kernel
	tr *tracer
}

// wrapKernel preserves k's optional interfaces.
func wrapKernel(k solver.Kernel, tr *tracer) solver.Kernel {
	tk := tracedKernel{Kernel: k, tr: tr}
	if fk, ok := k.(solver.FluxedKernel); ok {
		return tracedFluxedKernel{tracedKernel: tk, fk: fk}
	}
	return tk
}

func (k tracedKernel) Step(p *grid.Patch, dt, dx float64) {
	start := k.tr.now()
	k.Kernel.Step(p, dt, dx)
	k.tr.layer(spanKernel, start, k.Kernel.Name(), p.Box.NumCells())
}

type tracedFluxedKernel struct {
	tracedKernel
	fk solver.FluxedKernel
}

func (k tracedFluxedKernel) StepFluxes(p *grid.Patch, dt, dx float64) *solver.Fluxes {
	start := k.tr.now()
	f := k.fk.StepFluxes(p, dt, dx)
	k.tr.layer(spanKernel, start, k.fk.Name(), p.Box.NumCells())
	return f
}

type tracedBalancer struct {
	dlb.Balancer
	tr *tracer
}

// Verdicts recorded on dlb.global spans.
const (
	verdictSkipped       = "skipped"       // no gain/cost evaluation
	verdictKept          = "kept"          // evaluated, no redistribution
	verdictRedistributed = "redistributed" // evaluated and redistributed
	verdictParallel      = "parallel"      // unevaluated level-0 rebalancing
)

func (b tracedBalancer) PlaceChild(ctx *dlb.Context, childBox geom.Box, parent *amr.Grid) int {
	start := b.tr.now()
	owner := b.Balancer.PlaceChild(ctx, childBox, parent)
	b.tr.layer(spanPlace, start, "", 0)
	return owner
}

func (b tracedBalancer) LocalBalance(ctx *dlb.Context, level int) []dlb.Migration {
	start := b.tr.now()
	migs := b.Balancer.LocalBalance(ctx, level)
	b.tr.layer(spanLocal, start, "", int64(len(migs)))
	return migs
}

func (b tracedBalancer) GlobalBalance(ctx *dlb.Context) dlb.GlobalDecision {
	start := b.tr.enterGlobal()
	d := b.Balancer.GlobalBalance(ctx)
	verdict := verdictSkipped
	switch {
	case d.Evaluated && d.Invoked:
		verdict = verdictRedistributed
	case d.Evaluated:
		verdict = verdictKept
	case d.Invoked:
		verdict = verdictParallel
	}
	b.tr.exitGlobal(start, verdict, len(d.Migrations))
	return d
}
