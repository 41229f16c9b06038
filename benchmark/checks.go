package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"

	"afmm/internal/geom"
	"afmm/internal/particle"
)

// positionHash is the FNV-64a digest of the body positions in input order:
// equal hashes mean two runs moved every body to bit-identical places.
func positionHash(sys *particle.System) uint64 {
	byID := make([]geom.Vec3, sys.Len())
	for slot, id := range sys.Index {
		byID[id] = sys.Pos[slot]
	}
	h := fnv.New64a()
	var buf [24]byte
	for _, p := range byID {
		binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(p.X))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(p.Y))
		binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(p.Z))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// errSamples is the number of target bodies the accuracy check sums
// directly, at a cost of N*errSamples pair evaluations. The targets are a
// fixed draw, like the bodies: which bodies are sampled moves the ratio of
// two sample norms by 5-15%, which is not the solver's doing.
const errSamples = 1024

// forceRelErr returns the relative L2 error of sys.Acc (accelerations, or
// velocities for Stokes) against a direct sum over all bodies, on
// errSamples sample targets: sqrt(sum |a-a_direct|^2 / sum |a_direct|^2). sys.Acc must belong to the current positions, so the
// caller solves once more after the last step. A non-finite accumulator
// yields +Inf, which fails every ceiling.
func (in *instance) forceRelErr() float64 {
	sys := in.sys
	n := sys.Len()
	rng := rand.New(rand.NewSource(baseSeed ^ 0xacc))
	slotOf := make([]int, n)
	for slot, id := range sys.Index {
		slotOf[id] = slot
	}
	var num, den float64
	for k := 0; k < errSamples && k < n; k++ {
		i := slotOf[rng.Intn(n)]
		var ref geom.Vec3
		if in.w.kind == kindStokes {
			for j := 0; j < n; j++ {
				ref = ref.Add(stokesKernel.Velocity(sys.Pos[i], sys.Pos[j], sys.Aux[j]))
			}
		} else {
			g := in.w.gravityKernel()
			for j := 0; j < n; j++ {
				_, a := g.Accumulate(sys.Pos[i], sys.Pos[j], sys.Mass[j])
				ref = ref.Add(a)
			}
		}
		num += sys.Acc[i].Sub(ref).Norm2()
		den += ref.Norm2()
	}
	e := math.Sqrt(num / den)
	if math.IsNaN(e) {
		return math.Inf(1)
	}
	return e
}
