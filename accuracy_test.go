package afmm_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"afmm"
)

// The accuracy matrix is the independent oracle behind every change that
// moves force bits on purpose: both kernels × the five generators × leaf
// capacities from one body per leaf to one leaf for everything × four
// expansion orders, each cell the relative L2 error of the solve against
// direct summation. Two things are asserted: the error decays geometrically
// in p wherever a far field exists (MAC 0.6 bounds the convergence ratio by
// MAC/(2−MAC) ≈ 0.43), and no cell is worse than its pin.

const accN = 1000

var accOrders = [4]int{2, 4, 6, 8}

// accS: one body per leaf, two adaptive settings, and S > N (a single
// leaf: the solve is the direct sum).
var accS = [4]int{1, 8, 64, accN + 1}

var accDistribs = []struct {
	name string
	gen  func() *afmm.System
}{
	{"plummer", func() *afmm.System { return afmm.Plummer(accN, 1, 1, 11) }},
	{"cube", func() *afmm.System { return afmm.UniformCube(accN, 1, 12) }},
	{"shell", func() *afmm.System { return afmm.UniformShell(accN, 1, 13) }},
	{"clusters", func() *afmm.System { return afmm.TwoClusters(accN, 1, 1, 6, 0.5, 14) }},
	{"disk", func() *afmm.System { return afmm.SpiralDisk(accN, 1, 1, 15) }},
}

func relL2(got, want []afmm.Vec3) float64 {
	var num, den float64
	for i := range want {
		num += got[i].Sub(want[i]).Norm2()
		den += want[i].Norm2()
	}
	return math.Sqrt(num / den)
}

func gravityCell(sys *afmm.System, s, p int) float64 {
	sv := afmm.NewGravitySolver(sys, afmm.GravityConfig{P: p, S: s})
	sv.Solve()
	_, ref := afmm.AllPairsGravity(sys, sv.Cfg.Kernel)
	return relL2(sys.Acc, ref)
}

func stokesCell(sys *afmm.System, s, p int) float64 {
	rng := rand.New(rand.NewSource(99))
	for i := range sys.Aux {
		sys.Aux[i] = afmm.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
	}
	k := afmm.StokesletKernel{Mu: 1, Eps: 1e-4}
	sv := afmm.NewStokesSolver(sys, afmm.StokesConfig{P: p, S: s, Kernel: k})
	sv.Solve()
	return relL2(sys.Acc, afmm.AllPairsStokes(sys, k))
}

func TestAccuracyMatrix(t *testing.T) {
	kernels := []struct {
		name string
		cell func(sys *afmm.System, s, p int) float64
	}{{"gravity", gravityCell}, {"stokes", stokesCell}}
	for _, k := range kernels {
		for _, d := range accDistribs {
			for _, s := range accS {
				key := fmt.Sprintf("%s/%s/S=%d", k.name, d.name, s)
				pin, pinned := accuracyPins[key]
				if !pinned {
					t.Errorf("%s: no pin", key)
				}
				var row [4]float64
				for i, p := range accOrders {
					row[i] = k.cell(d.gen(), s, p)
					if row[i] > pin[i]*(1+1e-12) {
						t.Errorf("%s p=%d: error %.17g above pin %.17g", key, p, row[i], pin[i])
					}
				}
				t.Logf("%q: {%.17g, %.17g, %.17g, %.17g},", key, row[0], row[1], row[2], row[3])
				if s > accN {
					// No far field: every order is the direct sum.
					for i, e := range row {
						if e > 1e-13 {
							t.Errorf("%s p=%d: single-leaf solve differs from direct by %g", key, accOrders[i], e)
						}
					}
					continue
				}
				if row[0] < 1e-13 {
					t.Errorf("%s: no far field to measure (error %g at p=2)", key, row[0])
				}
				// Geometric decay: each two orders cut the error by at least
				// the worst-case ratio squared, (MAC/(2−MAC))² ≈ 0.18, with
				// a factor 2 allowance for the mix of pair geometries.
				const step = 2 * 0.6 / 1.4 * 0.6 / 1.4
				for i := 1; i < len(row); i++ {
					if row[i] > row[i-1]*step {
						t.Errorf("%s: error %g at p=%d not below %g×%.2f (p=%d)",
							key, row[i], accOrders[i], row[i-1], step, accOrders[i-1])
					}
				}
			}
		}
	}
}

// accuracyPins holds the matrix as measured (go test -run AccuracyMatrix -v
// prints rows in this form). A cell may only move down, except when a
// change moves force bits on purpose and re-pins. The gravity rows were
// re-pinned when accepted leaf pairs started to be summed directly
// (octree.Tree.Direct): against the commit before, 56 of the 60 cells with a
// far field fell (by 36 % in the geometric mean, up to 66 %), one kept its
// value, and three rose — cube/S=64 at p=4 (+0.59 %) and p=6 (+0.17 %),
// shell/S=64 at p=2 (+0.23 %) — because the L2 norm of a sum of truncation
// errors is not monotone in the set of pairs made exact. Every row was
// re-pinned when M2M and L2L moved from the direct O(p^4) forms onto the
// translation kernel: of the 140 cells with a far field 49 rose, 53 fell
// and 38 kept their value, every move within 8.9e-12 relative (rounding).
// The gravity rows were re-pinned again when the near field began to
// evaluate each unordered pair once (the mutual order of
// octree.NearSchedule): of the 60 cells with a far field 27 rose, 32 fell
// and one kept its value, every move within 3.9e-11 relative and every
// rise within 7.8e-12 (rounding); the Stokes rows did not move.
var accuracyPins = map[string][4]float64{
	"gravity/plummer/S=1":     {0.0029614936403941734, 0.00015738120422201674, 2.1496558682009711e-05, 3.1662341323972682e-06},
	"gravity/plummer/S=8":     {0.0026095452465759602, 0.00014750123183637488, 1.5098945050737175e-05, 1.8444590250454442e-06},
	"gravity/plummer/S=64":    {0.00073289415661706848, 4.9602496913306263e-05, 3.41488865102725e-06, 2.6265023981394017e-07},
	"gravity/plummer/S=1001":  {0, 0, 0, 0},
	"gravity/cube/S=1":        {0.0039925881904625893, 0.00021927687058950491, 1.9783160119402631e-05, 2.6088128095471753e-06},
	"gravity/cube/S=8":        {0.0026220679765231658, 8.5860829855451359e-05, 7.5857234977752258e-06, 9.567835670802607e-07},
	"gravity/cube/S=64":       {0.0024048714315831688, 6.7474664764009096e-05, 4.4364615983501258e-06, 2.654592564776144e-07},
	"gravity/cube/S=1001":     {0, 0, 0, 0},
	"gravity/shell/S=1":       {0.0032261659997371958, 0.00018402131308126128, 1.946689447113021e-05, 3.5329315218598379e-06},
	"gravity/shell/S=8":       {0.0012904600316043023, 4.3068731215739117e-05, 2.5928631741758934e-06, 3.3287811250151215e-07},
	"gravity/shell/S=64":      {0.00057085076647601604, 2.4139044401088638e-05, 1.2921896010970136e-06, 1.8268935731470014e-07},
	"gravity/shell/S=1001":    {0, 0, 0, 0},
	"gravity/clusters/S=1":    {0.0091272296648919355, 0.00049240959803321244, 5.7727516681761196e-05, 8.6339434851163448e-06},
	"gravity/clusters/S=8":    {0.0043057461063555034, 0.00025390024544132389, 2.7365192950752906e-05, 3.9421813449454635e-06},
	"gravity/clusters/S=64":   {0.0023382249732200253, 0.00013536799185170307, 1.0512018123587158e-05, 1.1280122161664044e-06},
	"gravity/clusters/S=1001": {0, 0, 0, 0},
	"gravity/disk/S=1":        {0.0035992272825229985, 0.00023964055026334203, 2.2825609876427245e-05, 3.3901391479047525e-06},
	"gravity/disk/S=8":        {0.0019865862089908934, 0.00012066246669438956, 1.398094425576547e-05, 2.0873113336409679e-06},
	"gravity/disk/S=64":       {0.0003229534821691752, 5.2127681839036916e-05, 8.0469025412278999e-06, 1.4044916746721269e-06},
	"gravity/disk/S=1001":     {0, 0, 0, 0},
	"stokes/plummer/S=1":      {2.940214808754826e-05, 2.3720769386043416e-06, 3.2497127058928159e-07, 7.6171354746868801e-08},
	"stokes/plummer/S=8":      {2.5594641797424517e-05, 2.3714805465670077e-06, 3.1750163780790006e-07, 4.9664274045646396e-08},
	"stokes/plummer/S=64":     {5.1103861125972775e-06, 5.8210178417432088e-07, 8.0471710450604615e-08, 1.2023465004034753e-08},
	"stokes/plummer/S=1001":   {8.6026678385280362e-16, 8.6026678385280362e-16, 8.6026678385280362e-16, 8.6026678385280362e-16},
	"stokes/cube/S=1":         {4.0731000115477364e-05, 3.1668043576447229e-06, 3.4306007903761946e-07, 4.6499252445058863e-08},
	"stokes/cube/S=8":         {2.997226433249374e-05, 2.0200363025540213e-06, 1.8563612873129463e-07, 2.4990226425159608e-08},
	"stokes/cube/S=64":        {1.4517378594134668e-05, 9.3283657046026519e-07, 7.9500443757614547e-08, 8.4668808911960313e-09},
	"stokes/cube/S=1001":      {8.6243964630845788e-16, 8.6243964630845788e-16, 8.6243964630845788e-16, 8.6243964630845788e-16},
	"stokes/shell/S=1":        {5.0081847845425808e-05, 3.9103139841902398e-06, 4.4655332911524698e-07, 6.2931173423049681e-08},
	"stokes/shell/S=8":        {3.2964400487592706e-05, 2.2542750316868983e-06, 2.1412755413877917e-07, 2.787736913127501e-08},
	"stokes/shell/S=64":       {1.8035367063986492e-05, 9.1730434035856827e-07, 7.3282513430119058e-08, 9.5441553129848753e-09},
	"stokes/shell/S=1001":     {8.5924952390953607e-16, 8.5924952390953607e-16, 8.5924952390953607e-16, 8.5924952390953607e-16},
	"stokes/clusters/S=1":     {2.2849414545747387e-05, 1.7180696223540782e-06, 1.7757487377305117e-07, 2.4326864203325785e-08},
	"stokes/clusters/S=8":     {1.5625581781515884e-05, 1.4291039595744985e-06, 1.7182047123177521e-07, 2.8243087742360591e-08},
	"stokes/clusters/S=64":    {6.3144928964475281e-06, 3.9735274709644323e-07, 3.9275267221590207e-08, 4.6914898766269326e-09},
	"stokes/clusters/S=1001":  {8.6002444930210265e-16, 8.6002444930210265e-16, 8.6002444930210265e-16, 8.6002444930210265e-16},
	"stokes/disk/S=1":         {8.8184055281440824e-05, 8.2743708911764686e-06, 1.0771877745892295e-06, 2.3112544428865818e-07},
	"stokes/disk/S=8":         {5.6903901042194159e-05, 6.7793179023523924e-06, 1.0098535198224293e-06, 2.053412427800996e-07},
	"stokes/disk/S=64":        {1.0995507264884164e-05, 1.512808477483593e-06, 4.8949585555807722e-07, 6.4927209120920452e-08},
	"stokes/disk/S=1001":      {8.600993565283284e-16, 8.600993565283284e-16, 8.600993565283284e-16, 8.600993565283284e-16},
}
