package adsm

import (
	"math"
	"time"

	"adsm/internal/core"
	"adsm/internal/sim"
)

// Worker is one processor's handle onto the DSM: shared-memory accessors,
// synchronization, and a virtual clock. All accesses go through the
// coherence protocol — a read or write may fault and trigger page or diff
// traffic exactly as the paper describes.
type Worker struct {
	n *core.Node
}

// ID returns this processor's id (0..Procs-1).
func (w *Worker) ID() int { return w.n.ID() }

// Procs returns the cluster size.
func (w *Worker) Procs() int { return w.n.Procs() }

// Now returns this processor's virtual time since the run started.
func (w *Worker) Now() time.Duration { return w.n.Proc().Now().Duration() }

// Compute models local computation taking d of virtual time. Use it to
// charge the cost of work done on private data.
func (w *Worker) Compute(d time.Duration) { w.n.Compute(sim.Time(d)) }

// Lock acquires the named lock, pulling in the write notices of all
// preceding intervals (lazy release consistency).
func (w *Worker) Lock(id int) { w.n.Acquire(id) }

// Unlock releases the named lock.
func (w *Worker) Unlock(id int) { w.n.Release(id) }

// Barrier waits for all processors and makes all prior writes visible.
func (w *Worker) Barrier() { w.n.Barrier() }

// BarrierCkpt is Barrier plus a durable checkpoint of the step just
// finished: each node snapshots the dirty pages of its partition, ships
// the delta to its ring buddy, and commits with one extra barrier round.
// All processors must call it at the same step. Without checkpoint stores
// (see RunRecoverable) it is a plain Barrier.
func (w *Worker) BarrierCkpt(step int) { w.n.BarrierCkpt(int64(step)) }

// RecoverSync is the collective first call of a recovering incarnation:
// it agrees on the newest recoverable checkpoint, restores it, and
// returns the recovered step (-1 when nothing was checkpointed). Resume
// the step loop at the returned step + 1. RunRecoverable calls it for
// you.
func (w *Worker) RecoverSync() int { return int(w.n.RecoverSync()) }

// Prefetch declares that the given windows — typically of several
// different shared arrays — are about to be read, batching all of their
// invalid pages into one planned Multicall (the multi-range form of
// Shared.Prefetch). Like the single-range hint it never changes what the
// program computes: with span prefetch off, or when there is nothing
// profitable to batch, it is a no-op and the faults fire on access
// exactly as without it.
func (w *Worker) Prefetch(wins ...Window) {
	rs := make([]core.Range, 0, len(wins))
	for _, win := range wins {
		if win.size == 0 {
			continue
		}
		rs = append(rs, core.Range{Addr: win.addr, Size: win.size})
	}
	if len(rs) == 0 {
		return
	}
	w.n.PrefetchRanges(rs)
}

// ReadU32 reads the 32-bit word at addr.
func (w *Worker) ReadU32(addr Addr) uint32 { return w.n.ReadU32(addr) }

// WriteU32 writes the 32-bit word at addr.
func (w *Worker) WriteU32(addr Addr, v uint32) { w.n.WriteU32(addr, v) }

// ReadU64 reads the 64-bit word at addr.
func (w *Worker) ReadU64(addr Addr) uint64 { return w.n.ReadU64(addr) }

// WriteU64 writes the 64-bit word at addr.
func (w *Worker) WriteU64(addr Addr, v uint64) { w.n.WriteU64(addr, v) }

// ReadI64 reads the signed 64-bit word at addr.
func (w *Worker) ReadI64(addr Addr) int64 { return int64(w.n.ReadU64(addr)) }

// WriteI64 writes the signed 64-bit word at addr.
func (w *Worker) WriteI64(addr Addr, v int64) { w.n.WriteU64(addr, uint64(v)) }

// ReadF64 reads the float64 at addr.
func (w *Worker) ReadF64(addr Addr) float64 {
	return math.Float64frombits(w.n.ReadU64(addr))
}

// WriteF64 writes the float64 at addr.
func (w *Worker) WriteF64(addr Addr, v float64) {
	w.n.WriteU64(addr, math.Float64bits(v))
}
