package vgpu

import (
	"testing"

	"afmm/internal/distrib"
	"afmm/internal/octree"
)

func BenchmarkPartitionAndTime(b *testing.B) {
	sys := distrib.Plummer(50000, 1, 1, 42)
	tree := octree.Build(sys, octree.Config{S: 64})
	tree.BuildLists()
	c := NewCluster(4, DefaultSpec())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Partition(tree)
		c.Execute(tree)
	}
}
