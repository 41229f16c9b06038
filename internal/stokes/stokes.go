// Package stokes implements the paper's fluid-dynamics test problem: the
// method of regularized Stokeslets (Cortez) accelerated by the AFMM.
//
// The near field uses the regularized Stokeslet kernel directly, each
// unordered near pair once through core's mutual walk (core.Near). The far
// field uses the classical four-harmonic decomposition of the (singular)
// Stokeslet, valid when the blob parameter is far smaller than the cell
// separation: with Phi_j the harmonic potential of charges f_j (j = x,y,z)
// and Psi the harmonic potential of charges f·y,
//
//	8 pi mu u_i(x) = Phi_i(x) - x_j d_i Phi_j(x) + d_i Psi(x)
//
// so one Stokes solve runs four Laplace FMM passes over the same tree —
// which is why the per-pair M2L cost of this problem is ~4x the
// gravitational one (§IX.B), the property Figure 10 exploits. The passes
// share every geometric quantity, so the field runs them side by side: one
// harmonic evaluation per body and one four-column translation per V-list
// pair serve all four (Field.Up, Down, L2P); the cost model keeps counting
// four passes of expansion work.
//
// Everything that is not the kernel — lists, the step graph, the virtual
// machine's timing, the cost model, telemetry, validation — is the gravity
// solver's: a Solver is core's step driver over this package's Field.
package stokes

import (
	"math"

	"afmm/internal/core"
	"afmm/internal/expansion"
	"afmm/internal/fault"
	"afmm/internal/geom"
	"afmm/internal/kernels"
	"afmm/internal/octree"
	"afmm/internal/particle"
	"afmm/internal/sched"
	"afmm/internal/telemetry"
	"afmm/internal/vcpu"
	"afmm/internal/vgpu"
)

// passes is the number of harmonic far-field passes per Stokes solve: the
// width of the field.
const passes = 4

// Config assembles a Stokes solver. Fields shared with core.Config mean
// what they mean there.
type Config struct {
	P        int
	S        int
	MAC      float64
	Mode     octree.Mode
	MaxDepth int
	Kernel   kernels.Stokeslet
	Pool     *sched.Pool
	CPU      vcpu.Spec
	NumGPUs  int
	// GPUSpec defaults to vgpu.DefaultSpec with its interaction rate
	// derated by the Stokeslet/gravity flop ratio: a device spec prices
	// this kernel's own pair (see Field.PairFlops).
	GPUSpec vgpu.Spec
	// SkipFarField disables far-field numerics (timing-only harnesses).
	SkipFarField bool
	// TaskGraph is accepted and ignored (see core.Config).
	TaskGraph bool
	Rec       *telemetry.Recorder
	Validate  bool
	// Faults and Watchdog act on the device walk as core.Config's do.
	Faults   *fault.Injector
	Watchdog vgpu.WatchdogConfig
}

func (c *Config) setDefaults() {
	if c.NumGPUs > 0 && c.GPUSpec.SMs == 0 {
		c.GPUSpec = vgpu.DefaultSpec()
		// The Stokeslet pair costs more flops than the gravity pair;
		// derate the device's interaction rate accordingly.
		c.GPUSpec.InteractionsPerSecPerSM *= float64(kernels.FlopsPerGravityInteraction) /
			float64(kernels.FlopsPerStokesletInteraction)
	}
	if c.Kernel.Mu == 0 {
		c.Kernel.Mu = 1
	}
	if c.Kernel.Eps == 0 {
		c.Kernel.Eps = 1e-3
	}
}

// Solver evaluates regularized-Stokeslet velocities with the AFMM: core's
// step driver over the Stokeslet Field. Body forces live in Sys.Aux (they
// permute with the tree); the resulting fluid velocities are accumulated
// into Sys.Acc. Cfg is the driver's configuration (its Kernel is gravity's
// and unused here; the Stokeslet is the Field's). The distinct type keeps a
// Stokes solver out of the gravity step loop.
type Solver struct {
	*core.Solver
}

// StepTimes is the driver's step timing.
type StepTimes = core.StepTimes

// NewSolver builds the decomposition for the body positions.
func NewSolver(sys *particle.System, cfg Config) *Solver {
	cfg.setDefaults()
	// No Tree.SetDirectK: at 4.5 (p+1)² stokes-cube-p4 did not move (99.86 →
	// 99.93 ms), so Stokes sums no accepted pair directly until a workload
	// shows a gain.
	drv := core.NewSolverWith(sys, core.Config{
		P: cfg.P, S: cfg.S, MAC: cfg.MAC, Mode: cfg.Mode, MaxDepth: cfg.MaxDepth,
		Pool: cfg.Pool, CPU: cfg.CPU, NumGPUs: cfg.NumGPUs, GPUSpec: cfg.GPUSpec,
		SkipFarField: cfg.SkipFarField,
		Rec:          cfg.Rec, Validate: cfg.Validate,
		Faults: cfg.Faults, Watchdog: cfg.Watchdog,
	}, func(t *octree.Tree, c core.Config, m2l *core.SharedM2L) core.Field {
		return NewField(t, sys, c.P, cfg.Kernel, m2l)
	})
	return &Solver{drv}
}

// Field is the width-4 field of the regularized Stokeslet: the four
// harmonic charges of Charges per body, one four-column translation per V
// pair, and the Combine of the four locals into a velocity.
type Field struct {
	core.Cells
	Kernel kernels.Stokeslet
	near   core.Near[kernels.StokesletSpan, kernels.StokesletPair, geom.Vec3]
}

// NewField returns the Stokeslet field of t's cells and sys's bodies.
func NewField(t *octree.Tree, sys *particle.System, p int, k kernels.Stokeslet, m2l *core.SharedM2L) *Field {
	return &Field{Cells: core.NewCells(t, sys, p, passes, m2l), Kernel: k}
}

func (f *Field) PairFlops() int { return kernels.FlopsPerStokesletInteraction }

func (f *Field) Private() core.Field {
	return NewField(f.Tree, f.Sys, f.P, f.Kernel, f.M2L)
}

// mpoles4 and locals4 return node ni's four harmonic expansions.
func (f *Field) mpoles4(ni int32) (m [passes]expansion.Expansion) {
	for k := range m {
		m[k] = f.Mpole(k, ni)
	}
	return m
}

func (f *Field) locals4(ni int32) (l [passes]expansion.Expansion) {
	for k := range l {
		l[k] = f.Local(k, ni)
	}
	return l
}

// Charges returns the four harmonic charges of a body at x carrying the
// force f: f_x, f_y, f_z and f·x, one per pass.
func Charges(f, x geom.Vec3) [passes]float64 {
	return [passes]float64{f.X, f.Y, f.Z, f.Dot(x)}
}

// Combine assembles 8 pi mu u(x) from the four harmonic potentials and
// gradients at x (the package comment's decomposition).
func Combine(x geom.Vec3, phi *[passes]float64, g *[passes]geom.Vec3) geom.Vec3 {
	return geom.Vec3{
		X: phi[0] - (x.X*g[0].X + x.Y*g[1].X + x.Z*g[2].X) + g[3].X,
		Y: phi[1] - (x.X*g[0].Y + x.Y*g[1].Y + x.Z*g[2].Y) + g[3].Y,
		Z: phi[2] - (x.X*g[0].Z + x.Y*g[1].Z + x.Z*g[2].Z) + g[3].Z,
	}
}

// Up computes node ni's four multipoles: at a leaf one harmonic evaluation
// per body feeds all four charges (expansion.Workspace.P2MLeaf4); above,
// one four-column translation per child (core.Cells.M2M). Every pass writes only its own slab, in the
// order a pass-by-pass sweep would. A leaf held in ghosts is formed from
// the copy (core.Field.Up).
func (f *Field) Up(w *expansion.Workspace, ni int32, ghosts []core.GhostLeaf) {
	n := &f.Tree.Nodes[ni]
	if !n.IsVisibleLeaf() {
		f.M2M(w, ni)
		return
	}
	m := f.mpoles4(ni)
	pos, aux := f.Sys.Pos[n.Start:n.End], f.Sys.Aux[n.Start:n.End]
	if g := core.Ghost(ghosts, ni); g != nil {
		pos, aux = g.Pos, g.Aux
	}
	w.P2MLeaf4(&m, n.Box.Center, pos, func(k int) [passes]float64 { return Charges(aux[k], pos[k]) })
}

// Down applies, cell by cell, the L2L and then the cell's V list to all
// four locals at once: the passes translate over one geometry, so the
// parent and each V pair are one four-column translation
// (core.Cells.L2L, core.SharedM2L.M2L4). Per pass the operations and
// their order are those of a pass-by-pass sweep.
func (f *Field) Down(w *expansion.Workspace, nodes []int32) {
	t := f.Tree
	for _, ni := range nodes {
		n := &t.Nodes[ni]
		f.L2L(w, ni)
		if len(n.V) > 0 {
			l := f.locals4(ni)
			srcs := w.Sources4(len(n.V))
			for _, vi := range n.V {
				srcs = append(srcs, expansion.M2LSource4{M: f.mpoles4(vi)})
			}
			f.M2L.M2L4(w, &l, t, ni, srcs)
		}
	}
}

// L2P evaluates the four finalized harmonic locals of one visible leaf —
// one harmonic evaluation per body (expansion.Workspace.L2PLeaf4) — and
// combines them into the Stokeslet velocity.
func (f *Field) L2P(w *expansion.Workspace, ni int32) {
	n := &f.Tree.Nodes[ni]
	l := f.locals4(ni)
	c0 := 1 / (8 * math.Pi * f.Kernel.Mu)
	sys := f.Sys
	pos := sys.Pos[n.Start:n.End]
	w.L2PLeaf4(&l, n.Box.Center, pos, func(k int, phi [passes]float64, grad [passes]geom.Vec3) {
		i := int(n.Start) + k
		sys.Acc[i] = sys.Acc[i].Add(Combine(pos[k], &phi, &grad).Scale(c0))
	})
}

// Near runs chunk c through core's mutual walk (core.Near.Run): each
// unordered near pair is evaluated once, its reaction folded in by Fold.
func (f *Field) Near(sch *octree.NearSchedule, c int, lo, hi int32, ghosts []core.GhostLeaf) {
	f.near.Run((*nearKernel)(f), f.Tree, sch, c, lo, hi, ghosts)
}

// Fold adds leaf ni's velocity reactions to its bodies.
func (f *Field) Fold(sch *octree.NearSchedule, ni int32) {
	f.near.Fold((*nearKernel)(f), f.Tree, sch, ni)
}

// nearKernel is the Stokeslet field seen as its core.NearKernel: forces
// (Sys.Aux) are the payload, velocities (Sys.Acc) the accumulators and the
// reaction.
type nearKernel Field

func (f *nearKernel) Span(lo, hi int32) kernels.StokesletSpan {
	return kernels.StokesletSpan{Pos: f.Sys.Pos[lo:hi], Force: f.Sys.Aux[lo:hi]}
}

func (f *nearKernel) GhostSpan(g *core.GhostLeaf) kernels.StokesletSpan {
	return kernels.StokesletSpan{Pos: g.Pos, Force: g.Aux}
}

func (f *nearKernel) Pair(lo, hi int32, react []geom.Vec3) kernels.StokesletPair {
	return kernels.StokesletPair{Pos: f.Sys.Pos[lo:hi], Force: f.Sys.Aux[lo:hi], React: react}
}

func (f *nearKernel) P2PRow(lo, hi int32, spans []kernels.StokesletSpan) {
	f.Kernel.P2PRow(f.Sys.Pos[lo:hi], f.Sys.Acc[lo:hi], spans)
}

func (f *nearKernel) P2PPair(lo, hi int32, pairs []kernels.StokesletPair, lanes *kernels.PairLanes) {
	sys := f.Sys
	f.Kernel.P2PPair(sys.Pos[lo:hi], sys.Aux[lo:hi], sys.Acc[lo:hi], pairs, lanes)
}

func (f *nearKernel) P2PReact(g *core.GhostLeaf, pairs []kernels.StokesletPair, lanes *kernels.PairLanes) {
	f.Kernel.P2PReact(g.Pos, g.Aux, pairs, lanes)
}

func (f *nearKernel) Fold(lo, hi int32, react []geom.Vec3) {
	vel := f.Sys.Acc[lo:hi]
	for j := range vel {
		vel[j].X += react[j].X
		vel[j].Y += react[j].Y
		vel[j].Z += react[j].Z
	}
}

func (f *Field) PackGhost(ni int32) core.GhostLeaf {
	n := &f.Tree.Nodes[ni]
	return core.GhostLeaf{
		Pos: append([]geom.Vec3(nil), f.Sys.Pos[n.Start:n.End]...),
		Aux: append([]geom.Vec3(nil), f.Sys.Aux[n.Start:n.End]...),
	}
}

func (f *Field) Poison(body int32) { f.Sys.Acc[body].X = math.NaN() }

// DirectVelocities computes exact regularized-Stokeslet velocities by
// direct summation (in storage order), the correctness baseline.
func DirectVelocities(sys *particle.System, k kernels.Stokeslet) []geom.Vec3 {
	n := sys.Len()
	out := make([]geom.Vec3, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			out[i] = out[i].Add(k.Velocity(sys.Pos[i], sys.Pos[j], sys.Aux[j]))
		}
	}
	return out
}
