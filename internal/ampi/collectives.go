package ampi

import (
	"fmt"
	"slices"

	"cloudlb/internal/charm"
)

// This file adds the rest of the MPI-flavored surface on top of the
// blocking core (Send/Recv/AllReduce/Barrier in ampi.go): point-to-point
// combined SendRecv, root-based Bcast and Reduce, Gather, and Wtime.
// Root-based collectives are built from point-to-point messages with
// distinguished payloads, as MPICH-style implementations do over a flat
// topology.

// Wtime returns the current virtual time in seconds (MPI_Wtime), read
// from the clock of the PE executing the rank.
func (r *Rank) Wtime() float64 { return float64(r.rc.ctx.Now()) }

// SendRecv sends to one rank and receives from another in one logical
// step (MPI_Sendrecv): the send is initiated before blocking on the
// receive, so symmetric exchanges cannot deadlock.
func (r *Rank) SendRecv(to int, data interface{}, bytes int, from int) interface{} {
	r.Send(to, data, bytes)
	return r.Recv(from)
}

type bcastPayload struct {
	Tag  string
	Data interface{}
}

// Bcast distributes root's data to every rank (MPI_Bcast): root sends,
// everyone else receives from root. All ranks must call it with the same
// root. Returns the broadcast value on every rank.
func (r *Rank) Bcast(root int, data interface{}, bytes int) interface{} {
	rc := r.rc
	if root < 0 || root >= rc.world.size {
		panic(fmt.Sprintf("ampi: bcast from invalid root %d", root))
	}
	if r.Rank() == root {
		for dst := 0; dst < rc.world.size; dst++ {
			if dst != root {
				r.Send(dst, bcastPayload{Tag: "bcast", Data: data}, bytes)
			}
		}
		return data
	}
	msg := r.Recv(root)
	bp, ok := msg.(bcastPayload)
	if !ok || bp.Tag != "bcast" {
		panic(fmt.Sprintf("ampi: rank %d expected bcast from %d, got %T", r.Rank(), root, msg))
	}
	return bp.Data
}

// Reduce combines value across ranks and returns the result at root
// (MPI_Reduce); other ranks return 0. Implemented over the runtime's
// reduction tree followed by a discard at non-roots, which keeps its
// cost profile identical to AllReduce (the runtime broadcasts results).
func (r *Rank) Reduce(root int, value float64, op charm.ReduceOp) float64 {
	if root < 0 || root >= r.rc.world.size {
		panic(fmt.Sprintf("ampi: reduce to invalid root %d", root))
	}
	v := r.AllReduce(value, op)
	if r.Rank() == root {
		return v
	}
	return 0
}

type gatherPayload struct {
	From int
	Data interface{}
}

// Gather collects one payload from every rank at root (MPI_Gather). The
// returned slice at root is ordered by rank; other ranks return nil.
func (r *Rank) Gather(root int, data interface{}, bytes int) []interface{} {
	rc := r.rc
	if root < 0 || root >= rc.world.size {
		panic(fmt.Sprintf("ampi: gather to invalid root %d", root))
	}
	if r.Rank() != root {
		r.Send(root, gatherPayload{From: r.Rank(), Data: data}, bytes)
		// Gather is synchronizing in this implementation: every rank
		// waits for the root's acknowledgement so no rank races ahead
		// with the root still collecting.
		ack := r.Recv(root)
		if _, ok := ack.(gatherAck); !ok {
			panic(fmt.Sprintf("ampi: rank %d expected gather ack, got %T", r.Rank(), ack))
		}
		return nil
	}
	type slot struct {
		from int
		data interface{}
	}
	slots := []slot{{from: root, data: data}}
	for i := 0; i < rc.world.size-1; i++ {
		// Receive from any pending sender: scan ranks in order for
		// fairness and determinism.
		msg, from := r.recvGather()
		slots = append(slots, slot{from: from, data: msg})
	}
	slices.SortFunc(slots, func(a, b slot) int { return a.from - b.from })
	out := make([]interface{}, len(slots))
	for i, s := range slots {
		out[i] = s.data
	}
	for dst := 0; dst < rc.world.size; dst++ {
		if dst != root {
			r.Send(dst, gatherAck{}, 16)
		}
	}
	return out
}

type gatherAck struct{}

// recvGather receives the next gatherPayload from any rank, in arrival
// order.
func (r *Rank) recvGather() (interface{}, int) {
	rc := r.rc
	// Check buffered messages first, lowest rank first for determinism.
	for from := 0; from < rc.world.size; from++ {
		q := rc.pending[from]
		if len(q) == 0 {
			continue
		}
		if gp, ok := q[0].(gatherPayload); ok {
			rc.pending[from] = q[1:]
			return gp.Data, gp.From
		}
	}
	res := rc.yieldFor(yieldMsg{kind: yRecvAny})
	gp, ok := res.data.(gatherPayload)
	if !ok {
		panic(fmt.Sprintf("ampi: rank %d expected gather payload, got %T", r.Rank(), res.data))
	}
	return gp.Data, gp.From
}

// WallSince is a convenience for timing a phase: it returns the elapsed
// virtual seconds since from.
func (r *Rank) WallSince(from float64) float64 { return r.Wtime() - from }
