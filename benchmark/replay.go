package main

import (
	"math/rand"
	"runtime"
	"time"

	"afmm/internal/checkpoint"
	"afmm/internal/core"
	"afmm/internal/costmodel"
	"afmm/internal/expansion"
	"afmm/internal/geom"
	"afmm/internal/octree"
	"afmm/internal/particle"
	"afmm/internal/vcpu"
	"afmm/internal/vgpu"
)

// Replays time one exported entry point of a layer in isolation, single-
// threaded, on the tree a traced round left behind. They pin today's
// entry points (M2LBatchTable, Gravity.P2P, BuildFMMGraph, ...): a PR that
// replaces one re-points the replay in a benchmark PR of its own.

func timeMs(f func()) float64 {
	t0 := time.Now()
	f()
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

// medianMs runs f three times and returns its median duration.
func medianMs(f func()) float64 {
	return median([]float64{timeMs(f), timeMs(f), timeMs(f)})
}

// m2lRotCap mirrors the solvers' rotation-setup cap (core.m2lRotCap, not
// exported), so the replayed table is the production table.
const m2lRotCap = 1024

func (in *instance) replays(seed int64, m map[string]float64) error {
	w := in.w
	t := in.tree()
	sys := in.sys
	t.BuildLists()

	// octree: build and full list traversal as set-up pays them, from the
	// generator's unsorted bodies.
	var fresh *octree.Tree
	var gen, build []float64
	for i := 0; i < 3; i++ {
		var unsorted *particle.System
		gen = append(gen, timeMs(func() { unsorted = w.bodies(seed) }))
		build = append(build, timeMs(func() { fresh = octree.Build(unsorted, octree.Config{S: w.s}) }))
	}
	m["distrib.generate_ms"] = median(gen)
	m["octree.build_ms"] = median(build)
	m["octree.lists_full_ms"] = medianMs(fresh.RebuildLists)

	st := t.ComputeStats()
	m["octree.leaves"] = float64(st.VisibleLeaves)
	m["octree.depth"] = float64(st.MaxDepth)

	// expansion: every V-list pair of the real tree once, in node order,
	// through the class table, like the down sweep.
	p := w.p
	cls := t.M2LClasses()
	m["octree.m2l_classes"] = float64(cls.Classes())
	m["expansion.m2l_translations"] = float64(cls.Pairs)
	rng := rand.New(rand.NewSource(seed ^ 0x321))
	mp := make([]expansion.Expansion, len(t.Nodes))
	for i := range mp {
		mp[i] = expansion.NewExpansion(p)
		for c := range mp[i].C {
			mp[i].C[c] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	tb := expansion.NewM2LTable(p)
	m["expansion.table_build_ms"] = timeMs(func() {
		nrot := tb.Plan(cls.Dirs, cls.PairsPerClass, m2lRotCap)
		tb.BuildRotRange(0, nrot)
	})
	var covered int64
	for c := range cls.Dirs {
		if tb.HasRot(c) {
			covered += cls.PairsPerClass[c]
		}
	}
	ws := expansion.NewWorkspace(p)
	local := expansion.NewExpansion(p)
	if cls.Pairs > 0 {
		m["expansion.table_rot_coverage"] = float64(covered) / float64(cls.Pairs)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var srcs []expansion.M2LSource
		t0 := time.Now()
		for ni := range t.Nodes {
			n := &t.Nodes[ni]
			if len(n.V) == 0 {
				continue
			}
			srcs = srcs[:0]
			for _, vi := range n.V {
				srcs = append(srcs, expansion.M2LSource{M: mp[vi], From: t.Nodes[vi].Box.Center})
			}
			ws.M2LBatchTable(local, n.Box.Center, srcs, cls.Row(int32(ni)), tb)
		}
		el := time.Since(t0)
		runtime.ReadMemStats(&m1)
		m["expansion.m2l_ns"] = float64(el.Nanoseconds()) / float64(cls.Pairs)
		m["expansion.m2l_allocs_per_kpair"] = float64(m1.Mallocs-m0.Mallocs) / (float64(cls.Pairs) / 1e3)
	}

	// The other four operators, over the same tree: P2M and L2P per body,
	// M2M and L2L per parent-child translation (the direct forms, which
	// the solvers use unless UseRotatedTranslations is set).
	var bodies, links int64
	t.WalkVisible(func(ni int32) {
		n := &t.Nodes[ni]
		if n.IsVisibleLeaf() {
			bodies += int64(n.Count())
			return
		}
		for _, ci := range n.Children {
			if ci != octree.NilNode && t.Nodes[ci].Count() > 0 {
				links++
			}
		}
	})
	perOp := func(count int64, f func(n *octree.Node, ni int32)) float64 {
		if count == 0 {
			return 0
		}
		t0 := time.Now()
		t.WalkVisible(func(ni int32) { f(&t.Nodes[ni], ni) })
		return float64(time.Since(t0).Nanoseconds()) / float64(count)
	}
	m["expansion.p2m_ns"] = perOp(bodies, func(n *octree.Node, ni int32) {
		if n.IsVisibleLeaf() {
			for i := n.Start; i < n.End; i++ {
				ws.P2M(mp[ni], n.Box.Center, sys.Pos[i], sys.Mass[i])
			}
		}
	})
	m["expansion.l2p_ns"] = perOp(bodies, func(n *octree.Node, ni int32) {
		if n.IsVisibleLeaf() {
			for i := n.Start; i < n.End; i++ {
				ws.L2P(mp[ni], n.Box.Center, sys.Pos[i])
			}
		}
	})
	children := func(n *octree.Node, f func(c *octree.Node, ci int32)) {
		if n.IsVisibleLeaf() {
			return
		}
		for _, ci := range n.Children {
			if ci != octree.NilNode && t.Nodes[ci].Count() > 0 {
				f(&t.Nodes[ci], ci)
			}
		}
	}
	m["expansion.m2m_ns"] = perOp(links, func(n *octree.Node, ni int32) {
		children(n, func(c *octree.Node, ci int32) { ws.M2M(mp[ni], n.Box.Center, mp[ci], c.Box.Center) })
	})
	m["expansion.l2l_ns"] = perOp(links, func(n *octree.Node, ni int32) {
		children(n, func(c *octree.Node, ci int32) { ws.L2L(mp[ci], c.Box.Center, mp[ni], n.Box.Center) })
	})

	// kernels: the near field's CSR rows, row by row, into scratch
	// accumulators.
	sch := t.NearField()
	m["kernels.near_pairs"] = float64(sch.Total())
	phi := make([]float64, sys.Len())
	acc := make([]geom.Vec3, sys.Len())
	grav := w.gravityKernel()
	t0 := time.Now()
	for r, leaf := range sch.Leaves {
		n := &t.Nodes[leaf]
		xt := sys.Pos[n.Start:n.End]
		for k := sch.RowPtr[r]; k < sch.RowPtr[r+1]; k++ {
			lo, hi := sch.SrcStart[k], sch.SrcEnd[k]
			if w.kind == kindStokes {
				stokesKernel.P2P(xt, acc[n.Start:n.End], sys.Pos[lo:hi], sys.Aux[lo:hi])
			} else {
				grav.P2P(xt, phi[n.Start:n.End], acc[n.Start:n.End], sys.Pos[lo:hi], sys.Mass[lo:hi])
			}
		}
	}
	if el := time.Since(t0).Seconds(); el > 0 && sch.Total() > 0 {
		rate := float64(sch.Total()) / el
		if w.kind == kindStokes {
			m["kernels.stokes_pairs_per_s"] = rate
		} else {
			m["kernels.grav_pairs_per_s"] = rate
		}
	}

	// vgpu: the device chunk walk without numerics (nil P2P func) — the
	// host cost of the timing model itself.
	var ccfg core.Config
	if in.grav != nil {
		ccfg = in.grav.Cfg
	}
	if ccfg.NumGPUs > 0 {
		cl := vgpu.NewCluster(ccfg.NumGPUs, ccfg.GPUSpec)
		m["vgpu.walk_ms"] = medianMs(func() {
			cl.Partition(t)
			cl.ExecuteParallel(t, nil, in.pool)
		})
	}

	// vcpu: the task graph every Solve builds and replays serially.
	cpu := virtualCPU().Normalized()
	opt := vcpu.FMMGraphOptions{IncludeP2P: ccfg.NumGPUs == 0, FarFieldPasses: 1, P2PCostFactor: 1}
	if w.kind == kindStokes {
		sp := core.StokesProfile()
		opt.FarFieldPasses, opt.P2PCostFactor = sp.FarFieldPasses, sp.P2PCostFactor
	}
	m["vcpu.graph_sim_ms"] = medianMs(func() {
		costmodel.FromTree(t.CountOps())
		cpu.Simulate(vcpu.BuildFMMGraph(t, cpu.Base, opt))
	})

	// checkpoint: capture and encode, no disk.
	var sn checkpoint.Snapshot
	m["checkpoint.capture_ms"] = medianMs(func() { sn = checkpoint.Capture(sys, t.Cfg.S, 0, 0) })
	var cw countingWriter
	var werr error
	m["checkpoint.write_ms"] = medianMs(func() {
		cw = countingWriter{}
		werr = checkpoint.Write(&cw, sn)
	})
	m["checkpoint.bytes"] = float64(cw.n)
	return werr
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}
