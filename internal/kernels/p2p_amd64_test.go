//go:build amd64

package kernels

import (
	"testing"

	"afmm/internal/geom"
)

// TestRowCursorBudget: the cursor hands out every source of a row once, in
// order, each group within one call's budget — whole spans while they
// fit, a longer span in pieces — and skips empty spans.
func TestRowCursorBudget(t *testing.T) {
	ys := make([]geom.Vec3, 3*packedCallIters+5)
	ms := make([]float64, len(ys))
	for i := range ys {
		ys[i].X = float64(i)
	}
	cut := func(lo, hi int) GravitySpan { return GravitySpan{Pos: ys[lo:hi], Mass: ms[lo:hi]} }
	b := packedCallIters
	for _, row := range [][]GravitySpan{
		{},
		{cut(0, 0), cut(5, 5)},
		{cut(0, 7), cut(7, 7), cut(7, 40)},
		{cut(0, b), cut(b, b+1)},
		{cut(0, b-1), cut(b-1, b+1), cut(b+1, 2*b+3), cut(2*b+3, 2*b+4), cut(2*b+4, len(ys))},
		{cut(0, 2*b+7), cut(2*b+7, 2*b+9)},
	} {
		next := 0 // every row starts at source 0
		c := rowCursor[GravitySpan]{spans: row, max: packedCallIters}
		seen := 0
		for g, ns := c.next(); ns > 0; g, ns = c.next() {
			if ns > packedCallIters {
				t.Fatalf("group of %d sources over the budget", ns)
			}
			n := 0
			for _, s := range g {
				for _, y := range s.Pos[:s.sources()] {
					if int(y.X) != next {
						t.Fatalf("source %v handed out where %d was due", y.X, next)
					}
					next++
				}
				n += s.sources()
			}
			if n != ns {
				t.Fatalf("group reports %d sources, holds %d", ns, n)
			}
			seen += ns
		}
		want := 0
		for _, s := range row {
			want += s.sources()
		}
		if seen != want {
			t.Fatalf("handed out %d of %d sources", seen, want)
		}
	}
}
