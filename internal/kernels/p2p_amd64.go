//go:build amd64

package kernels

import (
	"afmm/internal/cpu"
	"afmm/internal/geom"
)

// packedOK is the CPUID verdict (internal/cpu): the packed P2P bodies of
// p2p_amd64.s need AVX2 and an OS that saves the ymm state. Without it P2P
// is P2PScalar. Tests flip it to run both dispatch states.
var packedOK = cpu.AVX2

// One assembly call covers whole blocks of four consecutive targets
// against a list of source spans; the transposes between the AoS arrays
// and the lane registers happen inside it, so nothing is staged in memory.
// The assembly has no preemption points, so a call is kept to
// packedCallIters block–source iterations, counted over all of its spans
// (under a millisecond): a direct sum over every body must not hold off a
// stop-the-world for its whole duration.
const packedCallIters = 1 << 17

// rowSpan is what rowCursor needs of a span type.
type rowSpan[S any] interface {
	sources() int
	cut(lo, hi int) S
}

// rowCursor hands out a row's spans in the groups one assembly call may
// take: consecutive spans of at most max sources in all, a longer span in
// pieces of that size. Splitting a row between calls is exact: each call
// stores the accumulators and the next one reloads them.
type rowCursor[S rowSpan[S]] struct {
	spans []S
	max   int
	lo    int // sources of spans[0] already handed out in pieces
	piece [1]S
}

// next returns the next group and its source count, which is zero once
// the row is done; spans without sources are skipped.
func (c *rowCursor[S]) next() ([]S, int) {
	for len(c.spans) > 0 {
		if n := c.spans[0].sources(); c.lo > 0 || n > c.max {
			hi := min(n, c.lo+c.max)
			c.piece[0] = c.spans[0].cut(c.lo, hi)
			ns := hi - c.lo
			c.lo = hi
			if hi == n {
				c.lo, c.spans = 0, c.spans[1:]
			}
			return c.piece[:], ns
		}
		g, ns := 0, 0
		for g < len(c.spans) && ns+c.spans[g].sources() <= c.max {
			ns += c.spans[g].sources()
			g++
		}
		group := c.spans[:g]
		c.spans = c.spans[g:]
		if ns > 0 {
			return group, ns
		}
	}
	return nil, 0
}

// gravityP2PRow streams the nspan spans, in order, over nblk blocks of
// four targets, updating phi and acc in place (p2p_amd64.s).
//
//go:noescape
func gravityP2PRow(xt *geom.Vec3, phi *float64, acc *geom.Vec3, nblk int, spans *GravitySpan, nspan int, eps2, bigG float64)

// rowPacked runs every target through the packed row body, four per
// block. A last block of one to three targets is staged once per row in a
// stack array, padded with copies of its last target, whose lanes are
// computed and discarded: lanes are independent, so padding is exact.
func (k Gravity) rowPacked(xt []geom.Vec3, phi []float64, acc []geom.Vec3, spans []GravitySpan) {
	eps2 := k.Softening * k.Softening
	full, w := len(xt)&^3, len(xt)&3
	var x4, a4 [4]geom.Vec3
	var p4 [4]float64
	for l := 0; w > 0 && l < 4; l++ {
		m := full + min(l, w-1)
		x4[l], p4[l], a4[l] = xt[m], phi[m], acc[m]
	}
	c := rowCursor[GravitySpan]{spans: spans, max: packedCallIters}
	for g, ns := c.next(); ns > 0; g, ns = c.next() {
		step := 4 * max(1, packedCallIters/ns)
		for i := 0; i < full; i += step {
			nb := min(full-i, step) / 4
			gravityP2PRow(&xt[i], &phi[i], &acc[i], nb, &g[0], len(g), eps2, k.G)
		}
		if w > 0 {
			gravityP2PRow(&x4[0], &p4[0], &a4[0], 1, &g[0], len(g), eps2, k.G)
		}
	}
	copy(phi[full:], p4[:w])
	copy(acc[full:], a4[:w])
}

// pairGroup is the most sources one packed pair call takes: their lane
// sums, 128 B a source, stay in the first-level cache across the call's
// blocks.
const pairGroup = 128

// gravityP2PPair streams the npair pairs, in order, over nblk blocks of
// four targets (masses mt), updating phi and acc in place and subtracting
// each lane's reaction terms from the source's four lane sums in lanes;
// valid masks the lanes that hold targets (p2p_amd64.s).
//
//go:noescape
func gravityP2PPair(xt *geom.Vec3, mt *float64, phi *float64, acc *geom.Vec3, nblk int, pairs *GravityPair, npair int, lanes *float64, valid *[4]uint64, eps2, bigG float64)

// gravityP2PReact is gravityP2PPair's reaction half alone (p2p_amd64.s).
//
//go:noescape
func gravityP2PReact(xt *geom.Vec3, mt *float64, nblk int, pairs *GravityPair, npair int, lanes *float64, valid *[4]uint64, eps2, bigG float64)

// reactPacked is pairPacked without the targets' half: the same blocks,
// groups, tail and fold through the reaction-only body.
func (k Gravity) reactPacked(xt []geom.Vec3, mt []float64, pairs []GravityPair, lanes *PairLanes) {
	eps2 := k.Softening * k.Softening
	full, w := len(xt)&^3, len(xt)&3
	var x4 [4]geom.Vec3
	var m4 [4]float64
	all, tail := blockMasks(w)
	for l := 0; w > 0 && l < 4; l++ {
		m := full + min(l, w-1)
		x4[l], m4[l] = xt[m], mt[m]
	}
	growLanes(lanes)
	c := rowCursor[GravityPair]{spans: pairs, max: pairGroup}
	for g, ns := c.next(); ns > 0; g, ns = c.next() {
		ln := lanes.buf[:16*ns]
		clear(ln)
		step := 4 * max(1, packedCallIters/ns)
		for i := 0; i < full; i += step {
			nb := min(full-i, step) / 4
			gravityP2PReact(&xt[i], &mt[i], nb, &g[0], len(g), &ln[0], &all, eps2, k.G)
		}
		if w > 0 {
			gravityP2PReact(&x4[0], &m4[0], 1, &g[0], len(g), &ln[0], &tail, eps2, k.G)
		}
		gravityFoldLanes(&g[0], len(g), &ln[0])
	}
}

// pairPacked runs the targets through the packed pair body, four per
// block, and the sources in groups of at most pairGroup: a group's lane
// sums start at zero, take every block, the padded tail block last with
// its copies masked out of the reaction, and are then folded into React.
func (k Gravity) pairPacked(xt []geom.Vec3, mt []float64, phi []float64, acc []geom.Vec3, pairs []GravityPair, lanes *PairLanes) {
	eps2 := k.Softening * k.Softening
	full, w := len(xt)&^3, len(xt)&3
	var x4, a4 [4]geom.Vec3
	var p4, m4 [4]float64
	all, tail := blockMasks(w)
	for l := 0; w > 0 && l < 4; l++ {
		m := full + min(l, w-1)
		x4[l], m4[l], p4[l], a4[l] = xt[m], mt[m], phi[m], acc[m]
	}
	growLanes(lanes)
	c := rowCursor[GravityPair]{spans: pairs, max: pairGroup}
	for g, ns := c.next(); ns > 0; g, ns = c.next() {
		ln := lanes.buf[:16*ns]
		clear(ln)
		step := 4 * max(1, packedCallIters/ns)
		for i := 0; i < full; i += step {
			nb := min(full-i, step) / 4
			gravityP2PPair(&xt[i], &mt[i], &phi[i], &acc[i], nb, &g[0], len(g), &ln[0], &all, eps2, k.G)
		}
		if w > 0 {
			gravityP2PPair(&x4[0], &m4[0], &p4[0], &a4[0], 1, &g[0], len(g), &ln[0], &tail, eps2, k.G)
		}
		gravityFoldLanes(&g[0], len(g), &ln[0])
	}
	copy(phi[full:len(xt)], p4[:])
	copy(acc[full:len(xt)], a4[:])
}

// gravityFoldLanes adds each source's four lane sums in lanes, folded as
// (l0 + l1) + (l2 + l3) per component, to its React entry (p2p_amd64.s).
//
//go:noescape
func gravityFoldLanes(pairs *GravityPair, npair int, lanes *float64)

// blockMasks returns the valid-lane masks of the pair bodies: every lane
// of a whole block, and the first w lanes of a padded tail block.
func blockMasks(w int) (all, tail [4]uint64) {
	for l := range all {
		all[l] = ^uint64(0)
		if l < w {
			tail[l] = ^uint64(0)
		}
	}
	return all, tail
}

// growLanes makes room in lanes for pairGroup sources of either kernel's
// lane sums: 16 a gravity source, 12 a Stokeslet one.
func growLanes(lanes *PairLanes) {
	if len(lanes.buf) < 16*pairGroup {
		lanes.buf = make([]float64, 16*pairGroup)
	}
}

//go:noescape
func stokesletP2PRow(xt, vel *geom.Vec3, nblk int, spans *StokesletSpan, nspan int, e2, twoE2, c0 float64)

func (k Stokeslet) rowPacked(xt []geom.Vec3, vel []geom.Vec3, spans []StokesletSpan) {
	e2, twoE2, c0 := k.consts()
	full, w := len(xt)&^3, len(xt)&3
	var x4, v4 [4]geom.Vec3
	for l := 0; w > 0 && l < 4; l++ {
		m := full + min(l, w-1)
		x4[l], v4[l] = xt[m], vel[m]
	}
	c := rowCursor[StokesletSpan]{spans: spans, max: packedCallIters}
	for g, ns := c.next(); ns > 0; g, ns = c.next() {
		step := 4 * max(1, packedCallIters/ns)
		for i := 0; i < full; i += step {
			nb := min(full-i, step) / 4
			stokesletP2PRow(&xt[i], &vel[i], nb, &g[0], len(g), e2, twoE2, c0)
		}
		if w > 0 {
			stokesletP2PRow(&x4[0], &v4[0], 1, &g[0], len(g), e2, twoE2, c0)
		}
	}
	copy(vel[full:], v4[:w])
}

// stokesletP2PPair streams the npair pairs, in order, over nblk blocks of
// four targets (forces ft), updating vel in place and adding each lane's
// reaction terms to the source's three lane sums in lanes; valid masks the
// lanes that hold targets (p2p_amd64.s).
//
//go:noescape
func stokesletP2PPair(xt, ft, vel *geom.Vec3, nblk int, pairs *StokesletPair, npair int, lanes *float64, valid *[4]uint64, e2, twoE2, c0 float64)

// stokesletFoldLanes adds each source's three lane sums in lanes, folded
// as (l0 + l1) + (l2 + l3) per component, to its React entry (p2p_amd64.s).
//
//go:noescape
func stokesletFoldLanes(pairs *StokesletPair, npair int, lanes *float64)

// pairPacked is Gravity.pairPacked for the Stokeslet: three lane sums a
// source, the padded tail block masked out of the reaction.
func (k Stokeslet) pairPacked(xt, ft, vel []geom.Vec3, pairs []StokesletPair, lanes *PairLanes) {
	e2, twoE2, c0 := k.consts()
	full, w := len(xt)&^3, len(xt)&3
	var x4, f4, v4 [4]geom.Vec3
	all, tail := blockMasks(w)
	for l := 0; w > 0 && l < 4; l++ {
		m := full + min(l, w-1)
		x4[l], f4[l], v4[l] = xt[m], ft[m], vel[m]
	}
	growLanes(lanes)
	c := rowCursor[StokesletPair]{spans: pairs, max: pairGroup}
	for g, ns := c.next(); ns > 0; g, ns = c.next() {
		ln := lanes.buf[:12*ns]
		clear(ln)
		step := 4 * max(1, packedCallIters/ns)
		for i := 0; i < full; i += step {
			nb := min(full-i, step) / 4
			stokesletP2PPair(&xt[i], &ft[i], &vel[i], nb, &g[0], len(g), &ln[0], &all, e2, twoE2, c0)
		}
		if w > 0 {
			stokesletP2PPair(&x4[0], &f4[0], &v4[0], 1, &g[0], len(g), &ln[0], &tail, e2, twoE2, c0)
		}
		stokesletFoldLanes(&g[0], len(g), &ln[0])
	}
	copy(vel[full:len(xt)], v4[:])
}
