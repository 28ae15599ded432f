package core

import "adsm/internal/mem"

// The protocol-strategy seam: every place the engine used to switch on
// Params.Protocol now calls through the Policy interface, so a protocol is
// one type implementing these hooks plus one registry entry (registry.go).
// The engine (faults, intervals, locks, barriers, GC) stays protocol-
// agnostic; the policies reuse its building blocks (stayMW, validate,
// tryOwnership, ...) in different combinations.
//
// Policy resolution is per page, not per cluster: every pageState carries
// its protocol id and policy instance (ps.proto / ps.policy), seeded from
// the cluster protocol at InitPage and changed only at barrier epochs (the
// adaptive meta-protocol). Engine call sites that act on one page resolve
// the policy through the page; cluster-wide hooks (interval close, barrier
// release) partition their work by page protocol and call each distinct
// policy once.

// Policy is the per-protocol strategy consulted at every protocol decision
// point. Implementations must be safe to use from both process context
// (application threads, may block on RPCs) and handler context (message
// service, must not block) as annotated per method.
type Policy interface {
	// InitPage seeds node id's initial state for page pg (the page's mode,
	// the initial copy, and ownership). Runs once per (node, allocated
	// page) at Run start; the generic fields (applied vector, perceived
	// owner = allocator) are already set.
	InitPage(c *Cluster, id, pg int, ps *pageState)

	// WriteFault services a write miss on a page this node does not own
	// (the owner fast path is handled generically). Process context.
	WriteFault(n *Node, pg int, ps *pageState)

	// MakeValid brings an invalid or stale page up to date with every
	// write notice received for it, leaving ps.data current. Process
	// context; may block on page and diff fetches.
	MakeValid(n *Node, pg int, ps *pageState)

	// OnIntervalClose runs in process context immediately after the node
	// closes an interval (at a release-class event) and before the event's
	// messages go out. iv is never nil; wns is the subset of iv.WNs whose
	// pages this policy governs (== iv.WNs when the interval touched only
	// one protocol). HLRC uses it to flush diffs home.
	OnIntervalClose(n *Node, iv *Interval, wns []*WriteNotice)

	// OnOwnerNotice reacts to an ingested owner write notice after the
	// generic routing state is updated (adaptation mechanism 2 of Section
	// 3.1.2). May run in handler context.
	OnOwnerNotice(n *Node, ps *pageState, wn *WriteNotice)

	// OnBarrierRelease runs after a barrier release is ingested, when the
	// node is up to date with all modifications (adaptation mechanism 3).
	// It is called once per distinct page protocol on the node; self is the
	// protocol id the policy is serving, so page scans must restrict
	// themselves to pages with ps.proto == self. Process context.
	OnBarrierRelease(n *Node, self Protocol)

	// OnServePage runs before replying to a whole-page fetch from node
	// `from` (the WFS+WG read-probe hook). Handler context.
	OnServePage(n *Node, from, pg int, ps *pageState)

	// OnServeDiffs runs when serving a diff request, carrying the
	// requester's piggybacked false-sharing perception (adaptation
	// mechanism 1). Handler context.
	OnServeDiffs(n *Node, from int, ps *pageState, seesFS bool)

	// AllowSWByGranularity reports whether write-granularity adaptation
	// permits moving the page to SW mode (the WFS+WG 3 KB gate; every
	// other protocol answers true).
	AllowSWByGranularity(n *Node, ps *pageState) bool

	// MemPressure reports whether this node should request a garbage
	// collection at the next barrier.
	MemPressure(n *Node) bool

	// GCKeeperIsOwner selects the GC keeper: true picks the page's
	// ownership authority (owner or last owner), false the lowest-numbered
	// writer (pure MW, where every writer validates).
	GCKeeperIsOwner() bool

	// GCCollapseToSW makes garbage collection collapse every collected
	// page back to SW mode under the keeper (the adaptive protocols).
	GCCollapseToSW() bool

	// GCEligible reports whether pages under this policy participate in
	// barrier-time garbage collection at all. HLRC answers false: its homes
	// must keep their copies and it retires diffs eagerly, so the GC drop
	// phase has nothing to collect and would be wrong.
	GCEligible() bool

	// PrefetchReadSpans reports whether invalid pages of a read span may
	// be validated through the batched span fetch (one Multicall for the
	// whole span) instead of one serial fault per page. All current
	// protocols opt in: the batch issues exactly the fetches the serial
	// merge would, just overlapped.
	PrefetchReadSpans() bool

	// PrefetchWriteSpans reports whether invalid pages of a write span
	// may be validated the same way before the serial per-page write
	// faults run. Safe only when the protocol's write fault validates
	// without an ownership grant (MW and HLRC); the ownership-based
	// protocols keep their serial grant protocol — correctness first,
	// batching where it is provably equivalent.
	PrefetchWriteSpans() bool

	// SpanFetchPlan classifies one invalid page of a span for the batched
	// fetch: the whole-page fetch target (-1 when the local copy only
	// needs diffs), the diff-backed write notices to fetch and apply, and
	// ok=false to decline batching for this page (the engine then falls
	// back to the serial MakeValid path). The plan must request exactly
	// what one serial merge round would. Process context; may block only
	// on non-coherence RPCs (e.g. resolving a first-touch home binding).
	SpanFetchPlan(n *Node, pg int, ps *pageState) (target int, diffs []*WriteNotice, ok bool)

	// SpanSettle finishes a batched fetch for one page after the fetched
	// copy has been installed and the bundled diffs stored: it applies or
	// discards the pending write notices exactly as one MakeValid round
	// would, settling serially if new notices raced the batch. Process
	// context; may block.
	SpanSettle(n *Node, pg int, ps *pageState)

	// PublishOneSided reports whether a whole-page serve of this page may
	// be published to the node's one-sided read region, letting later
	// identical fetches be served off the region server without the
	// protocol handler running. False when OnServePage needs to observe
	// every fetch (the WFS+WG read probe before the page has been through
	// its measuring phase). Handler context.
	PublishOneSided(ps *pageState) bool

	// BatchOwnershipSpans reports whether a write span's ownership
	// requests may be grouped per perceived owner into one ownBatchReq
	// (write-span grant batching). Only the direct-request ownership
	// protocols (WFS, WFS+WG) opt in; pure SW routes requests through
	// homes and the non-ownership protocols never issue ownReqs.
	BatchOwnershipSpans() bool

	// OmitDominatedDiffs reports whether pages under this policy are
	// eligible for the omittable-write pass (Params.OmitWrites): emptying a
	// never-shipped predecessor diff whose byte extent the successor diff
	// covers. Only the pure MW policy opts in — its diffs live in the local
	// cache until requested, so a dead predecessor is purely local state.
	// HLRC must answer false (diffs are flushed home eagerly and dropped);
	// the ownership protocols never create the twin-backed diff chain the
	// pass rewrites.
	OmitDominatedDiffs() bool
}

// basePolicy supplies the no-op defaults shared by the concrete policies.
type basePolicy struct{}

func (basePolicy) OnIntervalClose(n *Node, iv *Interval, wns []*WriteNotice) {}
func (basePolicy) OnOwnerNotice(n *Node, ps *pageState, wn *WriteNotice)     {}
func (basePolicy) OnBarrierRelease(n *Node, self Protocol)                   {}
func (basePolicy) OnServePage(n *Node, from, pg int, ps *pageState)          {}
func (basePolicy) OnServeDiffs(n *Node, from int, ps *pageState, fs bool)    {}
func (basePolicy) AllowSWByGranularity(n *Node, ps *pageState) bool          { return true }
func (basePolicy) MemPressure(n *Node) bool                                  { return n.memPressure() }
func (basePolicy) GCKeeperIsOwner() bool                                     { return false }
func (basePolicy) GCCollapseToSW() bool                                      { return false }
func (basePolicy) GCEligible() bool                                          { return true }
func (basePolicy) MakeValid(n *Node, pg int, ps *pageState)                  { n.lrcMakeValid(pg, ps) }
func (basePolicy) PrefetchReadSpans() bool                                   { return true }
func (basePolicy) PrefetchWriteSpans() bool                                  { return false }
func (basePolicy) SpanFetchPlan(n *Node, pg int, ps *pageState) (int, []*WriteNotice, bool) {
	return n.lrcSpanPlan(ps)
}
func (basePolicy) SpanSettle(n *Node, pg int, ps *pageState) { n.lrcSpanSettle(pg, ps) }
func (basePolicy) PublishOneSided(ps *pageState) bool        { return true }
func (basePolicy) BatchOwnershipSpans() bool                 { return false }
func (basePolicy) OmitDominatedDiffs() bool                  { return false }

// ownerInitPage is the shared InitPage of the ownership-based protocols:
// every page starts in SW mode, owned (with its initial copy) by the
// allocator, node 0.
func ownerInitPage(c *Cluster, id, pg int, ps *pageState) {
	ps.mode = modeSW
	if id == 0 {
		ps.data = mem.NewPage()
		ps.status = pageReadOnly
		ps.owner = true
	}
}

// --- MW: the TreadMarks multiple-writer protocol ---

type mwPolicy struct{ basePolicy }

func (mwPolicy) InitPage(c *Cluster, id, pg int, ps *pageState) {
	ps.mode = modeMW
	if id == 0 {
		ps.data = mem.NewPage()
		ps.status = pageReadOnly
	}
}

func (mwPolicy) WriteFault(n *Node, pg int, ps *pageState) { n.stayMW(pg, ps) }

// PrefetchWriteSpans: an MW write fault validates and twins without any
// ownership traffic, so the validate half batches exactly like a read.
func (mwPolicy) PrefetchWriteSpans() bool { return true }

// OmitDominatedDiffs: MW diffs sit in the local cache until a peer asks,
// so a predecessor that provably never left the node can be emptied.
func (mwPolicy) OmitDominatedDiffs() bool { return true }

// --- SW: the CVM-like single-writer protocol ---

type swPolicy struct{ basePolicy }

func (swPolicy) InitPage(c *Cluster, id, pg int, ps *pageState) { ownerInitPage(c, id, pg, ps) }

func (swPolicy) WriteFault(n *Node, pg int, ps *pageState) { n.writeFaultSW(pg, ps) }

func (swPolicy) GCKeeperIsOwner() bool { return true }

// --- WFS and WFS+WG: the adaptive protocols ---

// adaptivePolicy implements WFS; with wg set it additionally adapts to
// write granularity (WFS+WG).
type adaptivePolicy struct {
	basePolicy
	wg bool
}

func (adaptivePolicy) InitPage(c *Cluster, id, pg int, ps *pageState) {
	ownerInitPage(c, id, pg, ps)
}

func (adaptivePolicy) WriteFault(n *Node, pg int, ps *pageState) { n.writeFaultAdaptive(pg, ps) }

// OnOwnerNotice is mechanism 2 of Section 3.1.2: a new owner write notice
// with no concurrent secondary write notice means a single writer has
// re-emerged, so the page may return to SW mode.
func (p adaptivePolicy) OnOwnerNotice(n *Node, ps *pageState, wn *WriteNotice) {
	if ps.mode != modeMW || ps.owner || ps.wasLast {
		return
	}
	for _, old := range ps.pending {
		if old.Int.Proc != wn.Int.Proc && old.Int.VC.Concurrent(wn.Int.VC) {
			return
		}
	}
	if mine := ps.myLastWN; mine != nil && mine.Int.Proc == n.id && mine.Int.VC.Concurrent(wn.Int.VC) {
		return
	}
	if p.AllowSWByGranularity(n, ps) {
		n.setMode(ps, modeSW)
		ps.seesFS = false
	}
}

// OnBarrierRelease is mechanism 3 of Section 3.1.2: at a barrier every
// node is up to date with all modifications, so a write notice that
// dominates all other write notices for a page means write-write false
// sharing has stopped and the page can return to SW mode.
func (p adaptivePolicy) OnBarrierRelease(n *Node, self Protocol) {
	for pg := 0; pg < n.c.usedPages(); pg++ {
		ps := n.pages[pg]
		if ps.proto != self {
			continue
		}
		if ps.mode != modeMW || ps.owner || ps.wasLast || len(ps.pending) == 0 {
			continue
		}
		dom := dominatingWN(ps.pending)
		if dom == nil {
			continue
		}
		if mine := ps.myLastWN; mine != nil && mine.Int.Proc == n.id &&
			!mine.Int.VC.Leq(dom.Int.VC) {
			// Our own write is not dominated: sharing has not stopped.
			continue
		}
		if p.AllowSWByGranularity(n, ps) {
			n.setMode(ps, modeSW)
			ps.seesFS = false
		}
	}
}

// OnServePage: a remote read of a page we own and have modified makes the
// page read-write shared; WFS+WG switches it to MW at our next release so
// its write granularity can be measured (Section 3.3).
func (p adaptivePolicy) OnServePage(n *Node, from, pg int, ps *pageState) {
	if !p.wg || !ps.owner || ps.wgProbed || from == n.id {
		return
	}
	if !ps.wroteSW && ps.myLastWN == nil {
		return
	}
	ps.wgProbed = true
	ps.dropOwnership = true
	if !ps.wroteSW {
		// Nothing dirty this interval: drop ownership immediately via an
		// empty-handed release at the next interval close; mark the page
		// so the drop happens even without new writes.
		n.queueOwnershipDrop(pg, ps)
	}
}

// OnServeDiffs records the requester's false-sharing perception in the
// copyset (mechanism 1 of Section 3.1.2).
func (adaptivePolicy) OnServeDiffs(n *Node, from int, ps *pageState, seesFS bool) {
	if ps.copysetFS == nil {
		ps.copysetFS = make(map[int]bool)
	}
	ps.copysetFS[from] = seesFS
}

// AllowSWByGranularity: WFS always permits SW mode; WFS+WG only for pages
// whose diffs are large (or that never went through MW measuring).
func (p adaptivePolicy) AllowSWByGranularity(n *Node, ps *pageState) bool {
	if !p.wg || !ps.wgProbed {
		return true
	}
	return ps.lastDiffSize >= n.c.params.WGThreshold
}

func (adaptivePolicy) GCKeeperIsOwner() bool { return true }
func (adaptivePolicy) GCCollapseToSW() bool  { return true }

// PublishOneSided: under WFS+WG an owned page that has not been through
// its MW measuring phase must see every remote fetch in OnServePage (the
// read probe above), so its serves stay on the handler path.
func (p adaptivePolicy) PublishOneSided(ps *pageState) bool {
	return !p.wg || !ps.owner || ps.wgProbed
}

func (adaptivePolicy) BatchOwnershipSpans() bool { return true }
