//go:build !amd64

package kernels

import "afmm/internal/geom"

// No packed body off amd64: P2P is P2PScalar on every target.
var packedOK = false

func (k Gravity) p2pPacked(xt []geom.Vec3, phi []float64, acc []geom.Vec3, ys []geom.Vec3, ms []float64) {
}

func (k Stokeslet) p2pPacked(xt []geom.Vec3, vel []geom.Vec3, ys []geom.Vec3, fs []geom.Vec3) {
}
