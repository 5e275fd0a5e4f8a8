package main

import (
	"fmt"
	"strconv"
	"time"

	"samrdlb/internal/dlb"
	"samrdlb/internal/engine"
	"samrdlb/internal/machine"
	"samrdlb/internal/metrics"
	"samrdlb/internal/netsim"
	"samrdlb/internal/solver"
	"samrdlb/internal/trace"
	"samrdlb/internal/workload"
)

// spec is one benchmark workload: a samrsim configuration. Everything
// not listed here takes samrsim's flag default.
type spec struct {
	name    string
	why     string
	dataset string // ShockPool3D | AMR64
	procs   int    // processors per group of the WAN pair
	domain  int    // level-0 cells per side
	steps   int    // level-0 steps
	data    bool   // carry real field data (-data)
	// tcp shards the data path by group over localhost sockets
	// (-transport tcp).
	tcp bool
	// ckptInterval > 0 writes a durable checkpoint generation every
	// ckptInterval level-0 steps (-ckpt-dir, -ckpt-interval).
	ckptInterval int
}

// layoutSeed fixes AMR64's cluster centres; --seed drives the traffic
// model. The layout decides whether clusters straddle the boundary
// between the two processor groups. About half the seeds do, and those
// send eight times the wire frames and run half as long again, so
// seeding the layout would make wall time bimodal across seeds. Layout
// 4 straddles the boundary, so the fine levels exchange over the wire,
// and it triggers one global redistribution.
const layoutSeed = 4

// maxLevel is samrsim's default refinement depth, used by every
// workload.
const maxLevel = 2

// wireTimeout is samrsim's -wire-timeout default.
const wireTimeout = 5 * time.Second

var workloads = []spec{
	{
		name:    "shockpool-data",
		why:     "ShockPool3D 32^3 with field data in shared memory: ghost fill, child init and the kernel do real work",
		dataset: "ShockPool3D", procs: 4, domain: 32, steps: 16, data: true,
	},
	{
		name:    "shockpool-structure",
		why:     "ShockPool3D 48^3 on 2x16 procs without data: thousands of grids, so flagging, clustering, plans and placement dominate",
		dataset: "ShockPool3D", procs: 16, domain: 48, steps: 16,
	},
	{
		name:    "amr64-wire",
		why:     "AMR64 48^3, clusters across the group boundary, data over the tcp transport, checkpoints every 4 steps: wire pack/unpack, disk, costly flagging",
		dataset: "AMR64", procs: 4, domain: 48, steps: 16, data: true, tcp: true, ckptInterval: 4,
	},
}

func findSpec(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// build constructs the driver, system and engine options exactly as
// cmd/samrsim does for samrsimArgs(seed, ckptDir), except that AMR64's
// cluster centres come from layoutSeed.
func (w spec) build(seed int64, ckptDir string) (workload.Driver, *machine.System, engine.Options) {
	var driver workload.Driver
	switch w.dataset {
	case "ShockPool3D":
		driver = workload.NewShockPool3D(w.domain, 2)
	case "AMR64":
		driver = workload.NewAMR64(w.domain, 2, layoutSeed)
	default:
		panic("samrbench: unknown dataset " + w.dataset)
	}
	traffic := &netsim.BurstyTraffic{QuietLoad: 0.1, BusyLoad: 0.6, MeanQuiet: 30, MeanBusy: 15, Seed: seed}
	sys := machine.WanPair(w.procs, traffic)
	bal, err := dlb.NewPolicy("distributed")
	if err != nil {
		panic("samrbench: " + err.Error())
	}
	opt := engine.Options{
		Steps:       w.steps,
		Balancer:    bal,
		MaxLevel:    maxLevel,
		WithData:    w.data,
		Pool:        solver.NewPool(0),
		Trace:       trace.New(),
		History:     metrics.NewHistory(),
		WireTimeout: wireTimeout,
	}
	if w.ckptInterval > 0 {
		opt.CheckpointInterval = w.ckptInterval
		opt.CheckpointDir = ckptDir
	}
	if w.tcp {
		opt.UseMPX = true
		opt.Transport = engine.TransportTCP
	}
	return driver, sys, opt
}

// samrsimEquivalent reports whether samrsimArgs reproduces build at
// seed: samrsim draws AMR64's cluster centres from its one -seed.
func (w spec) samrsimEquivalent(seed int64) bool {
	return w.dataset != "AMR64" || seed == layoutSeed
}

// samrsimArgs returns the cmd/samrsim arguments equivalent to build
// where samrsimEquivalent holds.
func (w spec) samrsimArgs(seed int64, ckptDir string) []string {
	args := []string{
		"-dataset", w.dataset, "-system", "wan", "-policy", "distributed",
		"-n", strconv.Itoa(w.procs), "-domain", strconv.Itoa(w.domain),
		"-maxlevel", strconv.Itoa(maxLevel), "-steps", strconv.Itoa(w.steps),
		"-seed", strconv.FormatInt(seed, 10),
	}
	if w.data {
		args = append(args, "-data")
	}
	if w.tcp {
		args = append(args, "-transport", "tcp")
	}
	if w.ckptInterval > 0 {
		args = append(args, "-ckpt-dir", ckptDir, "-ckpt-interval", strconv.Itoa(w.ckptInterval))
	}
	return args
}
