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
	"stokes/plummer/S=1":      {2.9402148087544862e-05, 2.3720769386036648e-06, 3.2497127059062584e-07, 7.617135474579295e-08},
	"stokes/plummer/S=8":      {2.5594641797424785e-05, 2.3714805465654885e-06, 3.1750163780892725e-07, 4.9664274045782847e-08},
	"stokes/plummer/S=64":     {5.1103861125960019e-06, 5.8210178417352848e-07, 8.0471710447641429e-08, 1.2023465004902315e-08},
	"stokes/plummer/S=1001":   {8.6026678385280362e-16, 8.6026678385280362e-16, 8.6026678385280362e-16, 8.6026678385280362e-16},
	"stokes/cube/S=1":         {4.0731000115476652e-05, 3.1668043576446653e-06, 3.4306007903801926e-07, 4.6499252444460878e-08},
	"stokes/cube/S=8":         {2.9972264332494339e-05, 2.0200363025547582e-06, 1.85636128729807e-07, 2.499022642361999e-08},
	"stokes/cube/S=64":        {1.4517378594131495e-05, 9.328365704588031e-07, 7.9500443752145692e-08, 8.4668808856863351e-09},
	"stokes/cube/S=1001":      {8.6243964630845788e-16, 8.6243964630845788e-16, 8.6243964630845788e-16, 8.6243964630845788e-16},
	"stokes/shell/S=1":        {5.0081847845425767e-05, 3.9103139841900737e-06, 4.4655332911506137e-07, 6.2931173421871445e-08},
	"stokes/shell/S=8":        {3.2964400487592665e-05, 2.2542750316880287e-06, 2.1412755413916314e-07, 2.7877369134535838e-08},
	"stokes/shell/S=64":       {1.8035367063988792e-05, 9.1730434035531789e-07, 7.3282513431356348e-08, 9.5441553125181982e-09},
	"stokes/shell/S=1001":     {8.5924952390953607e-16, 8.5924952390953607e-16, 8.5924952390953607e-16, 8.5924952390953607e-16},
	"stokes/clusters/S=1":     {2.2849414545746113e-05, 1.718069622351387e-06, 1.7757487377484315e-07, 2.4326864200536344e-08},
	"stokes/clusters/S=8":     {1.5625581781514708e-05, 1.429103959574886e-06, 1.7182047123004367e-07, 2.8243087739961628e-08},
	"stokes/clusters/S=64":    {6.314492896446604e-06, 3.9735274709776508e-07, 3.9275267218101768e-08, 4.691489873392156e-09},
	"stokes/clusters/S=1001":  {8.6002444930210265e-16, 8.6002444930210265e-16, 8.6002444930210265e-16, 8.6002444930210265e-16},
	"stokes/disk/S=1":         {8.8184055281439672e-05, 8.274370891176782e-06, 1.0771877745887806e-06, 2.3112544429229561e-07},
	"stokes/disk/S=8":         {5.6903901042190391e-05, 6.7793179023525414e-06, 1.0098535198294389e-06, 2.0534124277801976e-07},
	"stokes/disk/S=64":        {1.0995507264881395e-05, 1.5128084774827619e-06, 4.894958555559392e-07, 6.4927209121055898e-08},
	"stokes/disk/S=1001":      {8.600993565283284e-16, 8.600993565283284e-16, 8.600993565283284e-16, 8.600993565283284e-16},
}
