package octree

import (
	"testing"

	"afmm/internal/distrib"
)

func BenchmarkBuildPlummer(b *testing.B) {
	for _, n := range []int{10000, 50000} {
		b.Run(sizeName(n), func(b *testing.B) {
			sys := distrib.Plummer(n, 1, 1, 42)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Build(sys, Config{S: 64})
			}
		})
	}
}

func BenchmarkRebuild(b *testing.B) {
	sys := distrib.Plummer(20000, 1, 1, 42)
	t := Build(sys, Config{S: 64})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Rebuild(64)
	}
}

func BenchmarkRefill(b *testing.B) {
	sys := distrib.Plummer(20000, 1, 1, 42)
	t := Build(sys, Config{S: 64})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Refill()
	}
}

func BenchmarkBuildLists(b *testing.B) {
	for _, s := range []int{16, 64, 256} {
		b.Run(sizeName(s), func(b *testing.B) {
			sys := distrib.Plummer(20000, 1, 1, 42)
			t := Build(sys, Config{S: s})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Forced: with the list cache, plain BuildLists would skip
				// every iteration after the first.
				t.RebuildLists()
			}
		})
	}
}

// BenchmarkListRepair measures the incremental path BenchmarkBuildLists is
// compared against: each iteration makes one local edit (collapse, then
// push the same node back down) and repairs the lists twice, so the
// per-iteration cost is two local repairs versus two full traversals.
func BenchmarkListRepair(b *testing.B) {
	for _, s := range []int{16, 64, 256} {
		b.Run(sizeName(s), func(b *testing.B) {
			sys := distrib.Plummer(20000, 1, 1, 42)
			t := Build(sys, Config{S: s})
			t.BuildLists()
			var target int32 = -1
			t.WalkVisible(func(ni int32) {
				n := &t.Nodes[ni]
				if target >= 0 || n.IsVisibleLeaf() {
					return
				}
				for _, ci := range n.Children {
					if ci != NilNode && !t.Nodes[ci].IsVisibleLeaf() {
						return
					}
				}
				target = ni
			})
			if target < 0 {
				b.Skip("no collapsible node at this S")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.Collapse(target)
				t.BuildLists()
				t.PushDown(target)
				t.BuildLists()
			}
			b.StopTimer()
			if st := t.ListBuildStats(); st.FullBuilds != 1 {
				b.Fatalf("edits escalated to full builds: %+v", st)
			}
		})
	}
}

func BenchmarkEnforceS(b *testing.B) {
	sys := distrib.Plummer(20000, 1, 1, 42)
	t := Build(sys, Config{S: 64})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.EnforceS()
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1000 && n%1000 == 0:
		return itoa(n/1000) + "k"
	default:
		return itoa(n)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkNearFieldRefill times the per-occupancy-change refill of the
// near-field schedule (rows, spans, weights, direct masks) and, as
// "reserve", the per-list-epoch part (leaf index, reservation, candidate
// flags) on a grav-far-p8-sized tree.
func BenchmarkNearFieldRefill(b *testing.B) {
	sys := distrib.Plummer(20000, 1, 1, 42)
	tr := Build(sys, Config{S: 64})
	tr.SetDirectK(255)
	tr.BuildLists()
	tr.NearField()
	b.Run("refill", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr.nearRowsOK = false
			tr.NearField()
		}
	})
	b.Run("reserve", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr.nearEpoch = 0
			tr.NearField()
		}
	})
}
