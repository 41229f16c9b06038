//go:build !amd64

package expansion

// No packed leaf body off amd64: the leaf entry points run the per-body
// operators on every host (packedOK is never set).

func regularAVX2(p int, lanes *float64, geo *laneGeom, ab *float64) {
	panic("expansion: no packed leaf body on this architecture")
}

func p2mAccAVX2(n, nb int, lanes *float64, q *[laneWidth]float64, dst *complex128) {
	panic("expansion: no packed leaf body on this architecture")
}

func regGradAVX2(p int, lanes *float64, geo *laneGeom, ab *float64) {
	panic("expansion: no packed leaf body on this architecture")
}

func localAVX2(p int, l *complex128, lanes *float64, out *[4][laneWidth]float64) {
	panic("expansion: no packed leaf body on this architecture")
}
