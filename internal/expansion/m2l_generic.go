//go:build !amd64

package expansion

// No packed M2L body off amd64: m2lApply and m2lApply4 run the scalar
// stages on every host, and nothing may set packedOK.
var packedOK = false

func (w *Workspace) m2lPacked(l Expansion, src []complex128, half []float64, zph []complex128, rpow, ax []float64) {
	panic("expansion: no packed M2L body on this architecture")
}

func (w *Workspace) m2lPacked4(l, src *[4]Expansion, half []float64, zph, rpow [][4]float64, ax []float64) {
	panic("expansion: no packed M2L body on this architecture")
}

func geoLanesAVX2(p int, zph, rpow *[4]float64, z0, z1, z2, z3 *complex128, r0, r1, r2, r3 *float64) {
	panic("expansion: no packed M2L body on this architecture")
}
