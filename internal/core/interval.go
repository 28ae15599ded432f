package core

import (
	"adsm/internal/vc"
)

// Interval is one epoch of a processor's execution between release-class
// synchronization events. Intervals are immutable once closed, so nodes
// share pointers; per-node knowledge is tracked separately (knownTS).
type Interval struct {
	Proc int
	TS   int32 // this processor's interval index (== VC[Proc])
	VC   vc.VC
	WNs  []*WriteNotice
}

// WriteNotice records that a page was modified during an interval. Owner
// write notices additionally carry the page's version number (single
// writer protocol); non-owner write notices identify a diff.
type WriteNotice struct {
	Page     int
	Int      *Interval
	Owner    bool
	Version  int32
	DataHint int // modified bytes, set when the diff is created (granularity stats)
}

// wnKey identifies a write notice's diff in per-node diff caches.
type wnKey struct {
	page int
	proc int
	ts   int32
}

func keyOf(wn *WriteNotice) wnKey {
	return wnKey{page: wn.Page, proc: wn.Int.Proc, ts: wn.Int.TS}
}

// closeInterval ends the node's current interval if it wrote anything,
// creating write notices for every dirty page. It is called at every
// release-class event: lock release/grant, barrier arrival, and lock
// acquire (program-order edge).
var debugClose func(n *Node, dirty []int)

func (n *Node) closeInterval() *Interval {
	if debugClose != nil {
		debugClose(n, n.dirty)
	}
	if len(n.dirty) == 0 {
		return nil
	}
	ts := n.vclock[n.id] + 1
	ivc := n.vclock.Copy()
	ivc[n.id] = ts
	iv := &Interval{Proc: n.id, TS: ts, VC: ivc}

	for _, pg := range n.dirty {
		ps := n.pages[pg]
		var wn *WriteNotice
		switch {
		case ps.wroteSW:
			// Owner write notice: carries the version number. The page
			// stays writable (the owner needs no write detection beyond
			// the wroteSW flag).
			wn = &WriteNotice{Page: pg, Int: iv, Owner: true, Version: ps.version}
			ps.wroteSW = false
		case ps.dirtyMW:
			// Non-owner write notice: the twin is kept and the diff is
			// created lazily on first request (TreadMarks).
			wn = &WriteNotice{Page: pg, Int: iv, Owner: false}
			ps.undiffed = wn
			ps.dirtyMW = false
			// Re-protect so the next interval's writes fault again.
			if ps.status == pageReadWrite {
				ps.status = pageReadOnly
			}
			// Omittable-write pass: if our previous notice for this page
			// never left the node and this interval's diff covers it, the
			// predecessor's payload is dead (omit.go).
			if n.c.params.OmitWrites && ps.policy.OmitDominatedDiffs() {
				n.tryOmitPredecessor(pg, ps, ps.myLastWN, wn)
			}
		default:
			continue
		}
		iv.WNs = append(iv.WNs, wn)
		ps.myLastWN = wn
		ps.knownWNs = append(ps.knownWNs, wn)
		n.invalidateRegion(pg, ps)
		ps.applied.Join(ivc)
		n.wroteSinceGC[pg] = true
		if n.ckpt != nil {
			n.ckptDirty[pg] = true
		}
		n.c.detector.noteWrite(wn)

		// Ownership refusal aftermath: the refused owner keeps ownership
		// until this release, then emits the owner write notice above,
		// drops ownership and puts the page in MW mode (paper 3.1.1).
		if ps.dropOwnership {
			ps.dropOwnership = false
			ps.owner = false
			ps.wasLast = true
			if ps.status == pageReadWrite {
				// Write-protect: our next write must fault into MW mode.
				ps.status = pageReadOnly
			}
			n.setMode(ps, modeMW)
		}
	}
	n.dirty = n.dirty[:0]

	if len(iv.WNs) == 0 {
		return nil
	}
	// Release-time policy work (e.g. HLRC's eager diff flush) runs BEFORE
	// the interval is published into n.intervals: while the policy blocks
	// on its RPCs, this node can serve lock grants in handler context, and
	// a grant must not piggyback write notices whose diffs have not
	// reached their homes yet. A grant served during the flush only needs
	// intervals up to its release snapshot, so withholding iv is correct.
	// With per-page policies an interval can span pages under different
	// protocols; each distinct policy gets one call with its pages' subset.
	n.dispatchIntervalClose(iv)
	n.vclock[n.id] = ts
	n.knownTS[n.id] = ts
	n.intervals[n.id] = append(n.intervals[n.id], iv)
	return iv
}

// dispatchIntervalClose routes a freshly closed interval's write notices to
// the policies governing their pages, one call per distinct policy with the
// subset of notices it owns. On a single-protocol cluster (the common case)
// every page shares one policy and the fast path forwards the whole slice.
func (n *Node) dispatchIntervalClose(iv *Interval) {
	first := n.pages[iv.WNs[0].Page]
	uniform := true
	for _, wn := range iv.WNs[1:] {
		if n.pages[wn.Page].proto != first.proto {
			uniform = false
			break
		}
	}
	if uniform {
		first.policy.OnIntervalClose(n, iv, iv.WNs)
		return
	}
	// Mixed-protocol interval: group notices by protocol, preserving the
	// interval's order within each group, and call each policy once.
	done := make(map[Protocol]bool, 2)
	for _, lead := range iv.WNs {
		proto := n.pages[lead.Page].proto
		if done[proto] {
			continue
		}
		done[proto] = true
		var sub []*WriteNotice
		for _, wn := range iv.WNs {
			if n.pages[wn.Page].proto == proto {
				sub = append(sub, wn)
			}
		}
		n.pages[lead.Page].policy.OnIntervalClose(n, iv, sub)
	}
}

// intervalsSince collects every interval this node knows with TS newer than
// the given knowledge vector, in deterministic (proc, ts) order. These are
// piggybacked on lock grants and barrier traffic.
func (n *Node) intervalsSince(known []int32) []*Interval {
	var out []*Interval
	for p := 0; p < n.c.params.Procs; p++ {
		for _, iv := range n.intervals[p] {
			if iv.TS > known[p] {
				out = append(out, iv)
			}
		}
	}
	return out
}

// ingestIntervals merges received intervals into the node's knowledge,
// invalidating pages named by their write notices and updating adaptation
// state (false-sharing perception, owner write notices, mechanism 2 of
// Section 3.1.2). Runs in process context only.
func (n *Node) ingestIntervals(ivs []*Interval) {
	for _, iv := range ivs {
		if iv.Proc == n.id || iv.TS <= n.knownTS[iv.Proc] {
			continue
		}
		n.knownTS[iv.Proc] = iv.TS
		n.intervals[iv.Proc] = append(n.intervals[iv.Proc], iv)
		for _, wn := range iv.WNs {
			n.ingestWN(wn)
		}
	}
}

// debugIngest, when set, traces write-notice ingestion (tests only).
var debugIngest func(n *Node, wn *WriteNotice, skipped bool)

// ingestWN processes one incoming write notice.
func (n *Node) ingestWN(wn *WriteNotice) {
	ps := n.pages[wn.Page]
	if n.ckpt != nil {
		// Checkpoint dirty tracking wants every page any node wrote since
		// our last checkpoint, even notices our copy already subsumes.
		n.ckptDirty[wn.Page] = true
	}
	if debugIngest != nil {
		debugIngest(n, wn, wn.Int.VC.Leq(ps.applied))
	}
	if wn.Int.VC.Leq(ps.applied) {
		// Already reflected in our copy (e.g. we fetched a newer page).
		n.noteOwnerWN(ps, wn)
		if !wn.Owner {
			ps.knownWNs = append(ps.knownWNs, wn)
		}
		return
	}

	// Update the local write-write false-sharing perception: the new
	// notice is concurrent with another processor's write we know about.
	for _, old := range ps.pending {
		if old.Int.Proc != wn.Int.Proc && old.Int.VC.Concurrent(wn.Int.VC) {
			ps.seesFS = true
		}
	}
	if mine := ps.myLastWN; mine != nil && mine.Int.Proc != wn.Int.Proc && mine.Int.VC.Concurrent(wn.Int.VC) {
		ps.seesFS = true
	}

	n.noteOwnerWN(ps, wn)
	ps.knownWNs = append(ps.knownWNs, wn)
	ps.pending = append(ps.pending, wn)
	if ps.status != pageInvalid {
		ps.status = pageInvalid
	}
}

// noteOwnerWN records owner write notices: routing state (perceived owner
// and version) and mechanism 2 — a new owner write notice with no
// concurrent secondary write notices means false sharing has stopped.
func (n *Node) noteOwnerWN(ps *pageState, wn *WriteNotice) {
	if !wn.Owner {
		return
	}
	if ps.ownerWN == nil || wn.Version > ps.ownerWN.Version ||
		(wn.Version == ps.ownerWN.Version && ps.ownerWN.Int.VC.Leq(wn.Int.VC)) {
		ps.ownerWN = wn
	}
	if wn.Version >= ps.perceivedVersion && wn.Int.Proc != n.id {
		ps.perceivedOwner = wn.Int.Proc
		ps.perceivedVersion = wn.Version
	}
	// Mechanism 2 of Section 3.1.2 lives in the adaptive policies.
	ps.policy.OnOwnerNotice(n, ps, wn)
}

// orderWNs returns the write notices in an order consistent with
// happened-before-1 (a topological sort of the interval partial order),
// breaking ties between concurrent intervals deterministically by
// (proc, ts). Diffs must be applied in this order.
func orderWNs(wns []*WriteNotice) []*WriteNotice {
	out := make([]*WriteNotice, 0, len(wns))
	remaining := append([]*WriteNotice(nil), wns...)
	for len(remaining) > 0 {
		// Find the minimal elements (not preceded by any other remaining).
		best := -1
		for i, w := range remaining {
			minimal := true
			for j, o := range remaining {
				if i == j {
					continue
				}
				if o.Int.VC.Before(w.Int.VC) {
					minimal = false
					break
				}
			}
			if !minimal {
				continue
			}
			if best == -1 ||
				remaining[i].Int.Proc < remaining[best].Int.Proc ||
				(remaining[i].Int.Proc == remaining[best].Int.Proc && remaining[i].Int.TS < remaining[best].Int.TS) {
				best = i
			}
			_ = w
		}
		out = append(out, remaining[best])
		remaining = append(remaining[:best], remaining[best+1:]...)
	}
	return out
}
