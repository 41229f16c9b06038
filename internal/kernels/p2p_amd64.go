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
// against one source list; the transposes between the AoS arrays and the
// lane registers happen inside it, so nothing is staged in memory. The
// assembly has no preemption points, so a call is kept to packedCallIters
// block-source iterations (under a millisecond): a direct sum over every
// body must not hold off a stop-the-world for its whole duration.
const packedCallIters = 1 << 17

// gravityP2PBlocks streams the ns sources over nblk blocks of four targets,
// updating phi and acc in place (p2p_amd64.s).
//
//go:noescape
func gravityP2PBlocks(xt *geom.Vec3, phi *float64, acc *geom.Vec3, nblk int, ys *geom.Vec3, ms *float64, ns int, eps2, bigG float64)

// p2pPacked runs every target through the packed body, four per block;
// ys and ms are non-empty and of equal length. A last block of one to
// three targets is padded with copies of its last target, whose lanes are
// computed and discarded: lanes are independent, so padding is exact.
func (k Gravity) p2pPacked(xt []geom.Vec3, phi []float64, acc []geom.Vec3, ys []geom.Vec3, ms []float64) {
	eps2 := k.Softening * k.Softening
	ns := len(ys)
	step := max(1, packedCallIters/ns)
	i := 0
	for nblk := len(xt) / 4; nblk > 0; nblk -= step {
		nb := min(nblk, step)
		gravityP2PBlocks(&xt[i], &phi[i], &acc[i], nb, &ys[0], &ms[0], ns, eps2, k.G)
		i += 4 * nb
	}
	if w := len(xt) - i; w > 0 {
		var x4, a4 [4]geom.Vec3
		var p4 [4]float64
		for l := range x4 {
			m := i + min(l, w-1)
			x4[l], p4[l], a4[l] = xt[m], phi[m], acc[m]
		}
		gravityP2PBlocks(&x4[0], &p4[0], &a4[0], 1, &ys[0], &ms[0], ns, eps2, k.G)
		copy(phi[i:], p4[:w])
		copy(acc[i:], a4[:w])
	}
}

//go:noescape
func stokesletP2PBlocks(xt, vel *geom.Vec3, nblk int, ys, fs *geom.Vec3, ns int, e2, twoE2, c0 float64)

func (k Stokeslet) p2pPacked(xt []geom.Vec3, vel []geom.Vec3, ys []geom.Vec3, fs []geom.Vec3) {
	e2, twoE2, c0 := k.consts()
	ns := len(ys)
	step := max(1, packedCallIters/ns)
	i := 0
	for nblk := len(xt) / 4; nblk > 0; nblk -= step {
		nb := min(nblk, step)
		stokesletP2PBlocks(&xt[i], &vel[i], nb, &ys[0], &fs[0], ns, e2, twoE2, c0)
		i += 4 * nb
	}
	if w := len(xt) - i; w > 0 {
		var x4, v4 [4]geom.Vec3
		for l := range x4 {
			m := i + min(l, w-1)
			x4[l], v4[l] = xt[m], vel[m]
		}
		stokesletP2PBlocks(&x4[0], &v4[0], 1, &ys[0], &fs[0], ns, e2, twoE2, c0)
		copy(vel[i:], v4[:w])
	}
}
