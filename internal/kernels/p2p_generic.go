//go:build !amd64

package kernels

import "afmm/internal/geom"

// No packed body off amd64: P2PRow is P2PScalar span by span, P2PPair and
// P2PReact P2PPairScalar pair by pair.
var packedOK = false

func (k Gravity) rowPacked(xt []geom.Vec3, phi []float64, acc []geom.Vec3, spans []GravitySpan) {
}

func (k Gravity) pairPacked(xt []geom.Vec3, mt []float64, phi []float64, acc []geom.Vec3, pairs []GravityPair, lanes *PairLanes) {
}

func (k Gravity) reactPacked(xt []geom.Vec3, mt []float64, pairs []GravityPair, lanes *PairLanes) {
}

func (k Stokeslet) rowPacked(xt []geom.Vec3, vel []geom.Vec3, spans []StokesletSpan) {
}

func (k Stokeslet) pairPacked(xt, ft, vel []geom.Vec3, pairs []StokesletPair, lanes *PairLanes) {
}
