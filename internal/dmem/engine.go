package dmem

import (
	"afmm/internal/core"
)

// A nodeEngine is one virtual cluster node's private numeric state: a
// private core.Field — the solver's own operator layer over slabs only
// this node writes — the ghost-body copies the exchange delivered, and a
// workspace free-list. The tree, the interaction lists, the M2L table and
// the particle arrays are shared read-only (the "wire" only carries
// copies: multipoles and locals land in the field's slabs, ghost bodies in
// the table); accumulators are written only for the node's owned body
// ranges. Because every cell is computed wholly by one engine through the
// single-node Field methods, and ghost copies are bit-for-bit the owner's
// values, the distributed result is bit-identical to the single-node
// result.
type nodeEngine struct {
	core.Field
	// ghosts[cell] holds the bodies of a remote source leaf once its flow
	// arrived; Field.NearRow reads a source from here when present.
	ghosts []core.GhostLeaf
	ws     core.Workspaces
}

func newNodeEngine(drv *core.Solver) *nodeEngine {
	return &nodeEngine{Field: drv.Field.Private(), ws: core.NewWorkspaces(drv.Cfg.P, 32)}
}

// prepare sizes and zeroes the private slabs for the current tree and
// empties the ghost table.
func (e *nodeEngine) prepare(cells int) {
	e.Reset()
	if cap(e.ghosts) < cells {
		e.ghosts = make([]core.GhostLeaf, cells)
		return
	}
	e.ghosts = e.ghosts[:cells]
	for i := range e.ghosts {
		e.ghosts[i] = core.GhostLeaf{}
	}
}
