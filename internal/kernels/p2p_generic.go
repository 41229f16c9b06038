//go:build !amd64

package kernels

import "afmm/internal/geom"

// No packed body off amd64: P2PRow is P2PScalar span by span.
var packedOK = false

func (k Gravity) rowPacked(xt []geom.Vec3, phi []float64, acc []geom.Vec3, spans []GravitySpan) {
}

func (k Stokeslet) rowPacked(xt []geom.Vec3, vel []geom.Vec3, spans []StokesletSpan) {
}
