package dmem

import (
	"slices"

	"afmm/internal/core"
	"afmm/internal/sched"
	"afmm/internal/sphharm"
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
	// arrived; Field.Near reads a source from here when present.
	ghosts []core.GhostLeaf
	// arrival[kind][cell] is the graph node after which remote cell is
	// readable: its flow's unpack or P2M (-1: no flow of the step has it).
	arrival [3][]sched.NodeID
	ws      core.Workspaces
	// expLen is a cell's length on the wire: Width packed expansions.
	expLen int
}

func newNodeEngine(drv *core.Solver) *nodeEngine {
	return &nodeEngine{Field: drv.Field.Private(), ws: core.NewWorkspaces(drv.Cfg.P, 32),
		expLen: drv.Field.Width() * sphharm.PackedLen(drv.Cfg.P)}
}

// prepare sizes and zeroes the private slabs for the current tree and
// empties the ghost and arrival tables.
func (e *nodeEngine) prepare(cells int) {
	e.Reset()
	e.ghosts = slices.Grow(e.ghosts[:0], cells)[:cells]
	clear(e.ghosts)
	for kind, a := range e.arrival {
		a = slices.Grow(a[:0], cells)[:cells]
		for i := range a {
			a[i] = -1
		}
		e.arrival[kind] = a
	}
}

// pack is a flow's payload as this engine holds it: the sender's side of
// the wire format.
func (e *nodeEngine) pack(f flow) payload {
	if f.id.kind == flowGhost {
		data := make([]core.GhostLeaf, len(f.cells))
		for i, ci := range f.cells {
			data[i] = e.PackGhost(ci)
		}
		return payload{ghost: data}
	}
	pack := e.PackMpole
	if f.id.kind == flowLocal {
		pack = e.PackLocal
	}
	buf := make([]complex128, len(f.cells)*e.expLen)
	for i, ci := range f.cells {
		pack(ci, buf[i*e.expLen:(i+1)*e.expLen])
	}
	return payload{exp: buf}
}

// unpack is an unpack node's body, run after the flow's send: it loads the
// payload Recv returns — the sender's bytes, also for a flow whose retry
// budget ran out — into the engine's slabs or ghost table.
func (e *nodeEngine) unpack(f flow, tp *transport) {
	pay, _ := tp.Recv(f.id)
	if f.id.kind == flowGhost {
		for i, ci := range f.cells {
			e.ghosts[ci] = pay.ghost[i]
		}
		return
	}
	load := e.LoadMpole
	if f.id.kind == flowLocal {
		load = e.LoadLocal
	}
	for i, ci := range f.cells {
		load(ci, pay.exp[i*e.expLen:(i+1)*e.expLen])
	}
}
