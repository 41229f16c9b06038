package vgpu

import (
	"math"
	"slices"
	"testing"

	"afmm/internal/distrib"
	"afmm/internal/octree"
	"afmm/internal/sched"
)

func buildTree(n, s int, seed int64) *octree.Tree {
	sys := distrib.Plummer(n, 1, 1, seed)
	t := octree.Build(sys, octree.Config{S: s})
	t.BuildLists()
	return t
}

func TestPartitionCoversEveryLeafOnce(t *testing.T) {
	tree := buildTree(5000, 32, 1)
	for _, ng := range []int{1, 2, 3, 4, 7} {
		c := NewCluster(ng, DefaultSpec())
		c.Partition(tree)
		seen := map[int32]int{}
		for _, d := range c.Devices {
			for _, leaf := range d.Targets {
				seen[leaf]++
			}
		}
		leaves, _ := tree.LeafInteractions()
		if len(seen) != len(leaves) {
			t.Fatalf("ng=%d: %d leaves assigned, want %d", ng, len(seen), len(leaves))
		}
		for leaf, cnt := range seen {
			if cnt != 1 {
				t.Fatalf("ng=%d: leaf %d assigned %d times", ng, leaf, cnt)
			}
		}
	}
}

// TestPartitionRowsWalksTheGivenRows: the walk over every row listed is
// Partition's, and over a subset it assigns exactly that subset, in order,
// with the shares measured against the subset's own total.
func TestPartitionRowsWalksTheGivenRows(t *testing.T) {
	tree := buildTree(6000, 32, 3)
	sch := tree.NearField()
	all := make([]int32, sch.Rows())
	for r := range all {
		all[r] = int32(r)
	}
	a, b := NewCluster(3, DefaultSpec()), NewCluster(3, DefaultSpec())
	a.Partition(tree)
	b.PartitionRows(sch, all)
	for i := range a.Devices {
		if !slices.Equal(a.Devices[i].Rows, b.Devices[i].Rows) {
			t.Fatalf("device %d: listing every row assigns %v, Partition %v", i, b.Devices[i].Rows, a.Devices[i].Rows)
		}
	}

	half := all[len(all)/2:]
	b.PartitionRows(sch, half)
	var got []int32
	for _, d := range b.Devices {
		if len(d.Rows) == 0 {
			t.Fatalf("device %d got none of %d rows", d.ID, len(half))
		}
		got = append(got, d.Rows...)
	}
	if !slices.Equal(got, half) {
		t.Fatalf("the devices hold rows %v, want %v", got, half)
	}
}

func TestPartitionBalancesInteractions(t *testing.T) {
	tree := buildTree(8000, 64, 2)
	c := NewCluster(4, DefaultSpec())
	c.Partition(tree)
	c.Execute(tree, nil)
	var min, max int64 = math.MaxInt64, 0
	for _, d := range c.Devices {
		if d.Interactions < min {
			min = d.Interactions
		}
		if d.Interactions > max {
			max = d.Interactions
		}
	}
	if min == 0 {
		t.Fatal("a device got no work")
	}
	// The greedy walk should produce shares within ~2x of each other for
	// a tree with many leaves.
	if float64(max)/float64(min) > 2.5 {
		t.Fatalf("imbalanced shares: min=%d max=%d", min, max)
	}
}

func TestExecuteCountsMatchTree(t *testing.T) {
	tree := buildTree(3000, 16, 3)
	c := NewCluster(2, DefaultSpec())
	c.Partition(tree)
	c.Execute(tree, nil)
	ops := tree.CountOps()
	if got := c.TotalInteractions(); got != ops.P2P {
		t.Fatalf("device interactions %d != tree count %d", got, ops.P2P)
	}
}

func TestKernelTimeDecreasesWithDevices(t *testing.T) {
	tree := buildTree(10000, 64, 4)
	var prev float64 = math.Inf(1)
	for _, ng := range []int{1, 2, 4} {
		c := NewCluster(ng, DefaultSpec())
		c.Partition(tree)
		kt := c.Execute(tree, nil)
		if kt <= 0 {
			t.Fatalf("ng=%d: zero kernel time", ng)
		}
		if kt >= prev {
			t.Fatalf("ng=%d: kernel time %v did not improve on %v", ng, kt, prev)
		}
		prev = kt
	}
}

func TestIdleLanesPenalizeTinyLeaves(t *testing.T) {
	// Same total interactions spread over tiny leaves must cost more
	// device time than over full-warp leaves — the §III.C inefficiency.
	small := buildTree(4000, 4, 5)
	big := buildTree(4000, 256, 5)
	cs := NewCluster(1, DefaultSpec())
	cb := NewCluster(1, DefaultSpec())
	cs.Partition(small)
	cb.Partition(big)
	cs.Execute(small, nil)
	cb.Execute(big, nil)
	effSmall := cs.Devices[0].Efficiency()
	effBig := cb.Devices[0].Efficiency()
	if effSmall >= effBig {
		t.Fatalf("tiny leaves efficiency %v >= big leaves %v", effSmall, effBig)
	}
}

func TestExecuteRunsNumericCallback(t *testing.T) {
	tree := buildTree(500, 8, 6)
	c := NewCluster(2, DefaultSpec())
	c.Partition(tree)
	var pairs int64
	c.Execute(tree, func(sch *octree.NearSchedule, r int) { pairs += int64(len(sch.Row(r))) })
	if pairs != tree.CountOps().P2PN {
		t.Fatalf("callback pairs %d != tree pairs %d", pairs, tree.CountOps().P2PN)
	}
}

// TestDirectPairsExecutedNotCharged: accepted pairs the host sums directly
// ride in the device's rows — the callback sees every row entry — but the
// modeled device prices the paper's near field, the U-list entries: kernel
// times, interaction and slot counts and the partition are those of the
// same tree with the mechanism off.
func TestDirectPairsExecutedNotCharged(t *testing.T) {
	off := buildTree(3000, 12, 6)
	on := buildTree(3000, 12, 6)
	on.SetDirectK(60)
	sch := on.NearField()
	if sch.DirectPairs == 0 {
		t.Fatal("nothing selected")
	}
	cOff, cOn := NewCluster(3, DefaultSpec()), NewCluster(3, DefaultSpec())
	cOff.Partition(off)
	cOn.Partition(on)
	var calls int64
	tOff := cOff.Execute(off, nil)
	tOn := cOn.Execute(on, func(sch *octree.NearSchedule, r int) { calls += int64(len(sch.Row(r))) })
	if calls != int64(len(sch.Srcs)) || calls != on.CountOps().P2PN+sch.DirectPairs {
		t.Fatalf("callback saw %d entries, rows hold %d (%d of them direct)", calls, len(sch.Srcs), sch.DirectPairs)
	}
	if tOn != tOff {
		t.Fatalf("modeled kernel time %v with direct pairs in the rows, %v without", tOn, tOff)
	}
	for i, d := range cOn.Devices {
		o := cOff.Devices[i]
		if len(d.Rows) != len(o.Rows) || d.Interactions != o.Interactions || d.SlotWork != o.SlotWork {
			t.Fatalf("device %d: rows/interactions/slots %d/%d/%d, mechanism off %d/%d/%d",
				i, len(d.Rows), d.Interactions, d.SlotWork, len(o.Rows), o.Interactions, o.SlotWork)
		}
	}
}

func TestGreedyMakespan(t *testing.T) {
	if m := greedyMakespan(nil, 4); m != 0 {
		t.Fatalf("empty makespan %v", m)
	}
	jobs := []float64{3, 3, 3, 3}
	if m := greedyMakespan(jobs, 2); math.Abs(m-6) > 1e-12 {
		t.Fatalf("makespan %v, want 6", m)
	}
	if m := greedyMakespan(jobs, 4); math.Abs(m-3) > 1e-12 {
		t.Fatalf("makespan %v, want 3", m)
	}
	if m := greedyMakespan([]float64{5}, 0); m != 5 {
		t.Fatalf("m<1 machines: %v", m)
	}
}

func TestScaledSpec(t *testing.T) {
	s := ScaledSpec(0.25)
	d := DefaultSpec()
	if math.Abs(s.InteractionsPerSecPerSM-0.25*d.InteractionsPerSecPerSM) > 1 {
		t.Fatal("rate not scaled")
	}
}

func TestEmptyCluster(t *testing.T) {
	tree := buildTree(100, 8, 7)
	c := &Cluster{}
	c.Partition(tree)
	if kt := c.Execute(tree, nil); kt != 0 {
		t.Fatalf("empty cluster time %v", kt)
	}
}

func TestExecuteParallelMatchesSequential(t *testing.T) {
	tree := buildTree(3000, 32, 22)
	seq := NewCluster(4, DefaultSpec())
	par := NewCluster(4, DefaultSpec())
	seq.Partition(tree)
	par.Partition(tree)
	ktSeq := seq.Execute(tree, nil)
	ktPar := par.ExecuteParallel(tree, nil, sched.NewPool(4))
	if ktSeq != ktPar {
		t.Fatalf("parallel execute changed timing: %v vs %v", ktSeq, ktPar)
	}
	if seq.TotalInteractions() != par.TotalInteractions() {
		t.Fatal("interaction counts differ")
	}
}
