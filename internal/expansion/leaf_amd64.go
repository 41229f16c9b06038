//go:build amd64

package expansion

// The packed leaf bodies (leaf_amd64.s), one body per vector lane, run where
// packedOK says so. Each call serves one group of four bodies; ab is recur.

// regularAVX2 writes R_n^m of the four offsets geo to lanes, 8 floats per
// coefficient (re lanes, then im lanes), degrees 0..p.
//
//go:noescape
func regularAVX2(p int, lanes *float64, geo *laneGeom, ab *float64)

// p2mAccAVX2 adds q[b] * conj(R_i) of lanes b < nb, in body order, to each
// of the n coefficients of dst.
//
//go:noescape
func p2mAccAVX2(n, nb int, lanes *float64, q *[laneWidth]float64, dst *complex128)

// regGradAVX2 is regularAVX2 with the gradients: laneGrad floats per
// coefficient, R, dR/dx, dR/dy, dR/dz, each re then im.
//
//go:noescape
func regGradAVX2(p int, lanes *float64, geo *laneGeom, ab *float64)

// localAVX2 contracts the degree-p local l with every lane of regGradAVX2's
// output, writing the potential and the gradient's x, y, z per lane to out.
//
//go:noescape
func localAVX2(p int, l *complex128, lanes *float64, out *[4][laneWidth]float64)
