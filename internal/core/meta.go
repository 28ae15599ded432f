package core

import (
	"fmt"

	"adsm/internal/mem"
)

// The adaptive meta-protocol: a Policy registered like any other protocol
// (by the public adsm package) that never serves a page itself. Every page
// it initializes is immediately delegated to a concrete protocol — WFS by
// default — and thereafter the barrier manager watches each page's write
// notices and the sharing detector, and migrates individual pages between
// WFS, MW and HLRC. Switch decisions ride the barrier release (the
// Switches field of barRelease), so every node flips a page's protocol at
// the same barrier epoch and no page ever has two protocols live at once.
//
// The decision rules are deliberately conservative (streaks of epochs, a
// per-page switch budget): a wrong switch costs a drain and a re-switch,
// while a missed switch only costs the static protocol's overhead.

// Decision thresholds. Pages start under MW (the protocol that is never
// catastrophically wrong) and migrate when a clear pattern emerges:
//
//   - Solo-writer pages promote to the ownership-based protocol (WFS+WG):
//     the stable writer becomes owner and writes without twins or diffs.
//     Pages the writer rewrites in bulk (maxDiff >= adaptBulkThreshold)
//     promote after adaptSoloEpochs same-writer epochs — every MW epoch
//     costs them page-sized twin and diff copies, so waiting is expensive.
//     Fine-grain solo pages wait for the longer adaptSoloSlow streak,
//     which a mostly-solo page with periodic multi-writer bursts (Water's
//     update pattern) never completes. Pages that ever had a multi-writer
//     epoch, or that pure readers fetch (more than adaptMaxReaders of
//     them), stay in MW, whose lazy diffs serve sharers most cheaply.
//   - An ownership page that shows concurrent writers for
//     adaptMultiEpochs epochs goes back to MW: refusal churn.
//   - adaptHLRCEpochs consecutive epochs with at least adaptHLRCWriters
//     writers, on a page whose mean diff is a large fraction of the page
//     (bulk migratory updates, like IS's bucket array), send the page to
//     HLRC: collecting that many writers' page-sized diffs at every
//     reader costs more than one home round trip, and the eager home
//     flush keeps the diff pool (and GC) out of the picture. Fine-grain
//     many-writer pages (Barnes's bodies) stay in MW.
//
// Each page may switch at most adaptMaxSwitches times, so a workload that
// oscillates settles instead of thrashing.
const (
	adaptMultiEpochs   = 1
	adaptSoloEpochs    = 2
	adaptSoloSlow      = 4
	adaptHLRCWriters   = 4
	adaptHLRCEpochs    = 1
	adaptMaxReaders    = 1
	adaptMaxSwitches   = 4
	adaptBulkThreshold = mem.PageSize / 8
)

// NewAdaptivePolicy builds the adaptive meta-policy. Exported so the
// public adsm package can register it through the protocol registry.
func NewAdaptivePolicy() Policy { return &metaPolicy{} }

// metaPolicy is pointer-typed: unlike the stateless static policies it
// carries per-cluster resolution state (the initial delegation target),
// and newPolicy builds a fresh instance per cluster.
type metaPolicy struct {
	basePolicy
	resolved bool
	target   Protocol // initial per-page protocol: the frozen pin, or WFS
}

// InitPage delegates the page to the initial target protocol: the page's
// proto/policy binding is re-pointed before the target's own InitPage
// runs, so from the engine's point of view the page was never adaptive.
func (p *metaPolicy) InitPage(c *Cluster, id, pg int, ps *pageState) {
	if !p.resolved {
		p.resolve(c)
	}
	ps.proto = p.target
	ps.policy = c.policyFor(p.target)
	ps.policy.InitPage(c, id, pg, ps)
}

// WriteFault can never run: every page is re-pointed at a concrete
// protocol before the first application access.
func (p *metaPolicy) WriteFault(n *Node, pg int, ps *pageState) {
	panic("dsm: adaptive meta-policy received a write fault (page was never delegated)")
}

// resolve fixes the initial delegation target and seeds the cluster's
// adaptation state. Runs once, from Run's InitPage loop (single-threaded,
// before any node body spawns).
func (p *metaPolicy) resolve(c *Cluster) {
	// WFS+WG is the ownership-based target: everything WFS does, plus the
	// write-granularity gate that keeps fine-grained pages in MW mode.
	ad := &adaptState{wfs: WFSWG, mw: MW}
	if hlrc, err := ParseProtocol("HLRC"); err == nil {
		ad.hlrc, ad.hlrcOK = hlrc, true
	}
	p.target = ad.mw
	if f := c.params.AdaptiveFreeze; f != "" {
		id, err := ParseProtocol(f)
		if err != nil {
			panic(fmt.Sprintf("dsm: AdaptiveFreeze: %v", err))
		}
		if id == c.params.Protocol {
			panic("dsm: AdaptiveFreeze must name a static protocol, not the adaptive one")
		}
		ad.frozen = true
		p.target = id
	}
	ad.scanTS = make([]int32, c.params.Procs)
	ad.pages = make([]adaptPage, c.usedPages())
	for i := range ad.pages {
		ad.pages[i].proto = p.target
		ad.pages[i].soloWriter = -1
	}
	c.adapt = ad
	p.resolved = true
}

// adaptState is the barrier manager's per-cluster decision state. It lives
// on the Cluster (every instance of a multi-process deployment builds one,
// but only the instance hosting node 0 ever decides) and is only touched
// in barrier-handler context, under the runtime's serialization.
type adaptState struct {
	frozen bool // AdaptiveFreeze set: never switch
	wfs    Protocol
	mw     Protocol
	hlrc   Protocol
	hlrcOK bool // HLRC is registered (it lives in the public package)

	// scanTS[p] is the highest interval TS of processor p folded into the
	// decision state — the manager sees intervals redundantly (every
	// arrival relays what the arriver knows), so a watermark dedups them.
	scanTS []int32
	pages  []adaptPage
}

// adaptPage is the manager's view of one page's recent write behavior.
type adaptPage struct {
	proto      Protocol // the protocol the manager has the page under
	writers    uint64   // writer bitmask accumulated this barrier epoch
	solo       int      // consecutive written epochs with the same single writer
	soloWriter int      // that writer (-1 before the first written epoch)
	multi      int      // consecutive written epochs with >= 2 writers
	hlrcRun    int      // consecutive epochs with >= adaptHLRCWriters writers
	everMulti  bool     // the page has EVER had a multi-writer epoch
	maxVer     int32    // highest owner-notice version seen (or assigned)
	switches   int      // switches issued for this page (budget)
}

// noteArrival folds one barrier arrival's piggybacked intervals into the
// decision state. Manager handler context.
func (ad *adaptState) noteArrival(ivs []*Interval) {
	for _, iv := range ivs {
		if iv.TS <= ad.scanTS[iv.Proc] {
			continue
		}
		ad.scanTS[iv.Proc] = iv.TS
		for _, wn := range iv.WNs {
			ap := &ad.pages[wn.Page]
			ap.writers |= 1 << uint(iv.Proc)
			if wn.Owner && wn.Version > ap.maxVer {
				ap.maxVer = wn.Version
			}
		}
	}
}

// adaptDecide turns one barrier epoch's observations into per-page switch
// decisions. Runs on the manager when all nodes have arrived, on non-GC
// rounds only (a GC round reorganizes page copies under the CURRENT
// protocols; mixing the two transitions in one release is not worth the
// complexity). Handler context.
func (c *Cluster) adaptDecide() []policySwitch {
	ad := c.adapt
	used := c.usedPages()
	var out []policySwitch
	for pg := 0; pg < used && pg < len(ad.pages); pg++ {
		ap := &ad.pages[pg]
		writers := ap.writers
		ap.writers = 0
		nw := popcount(writers)
		if nw == 0 {
			continue // idle epoch: streaks hold
		}
		if nw == 1 {
			w := soloBit(writers)
			if w == ap.soloWriter {
				ap.solo++
			} else {
				ap.solo, ap.soloWriter = 1, w
			}
			ap.multi, ap.hlrcRun = 0, 0
		} else {
			ap.multi++
			ap.solo = 0
			ap.everMulti = true
			if nw >= adaptHLRCWriters {
				ap.hlrcRun++
			} else {
				ap.hlrcRun = 0
			}
		}
		if ap.switches >= adaptMaxSwitches {
			continue
		}
		// HLRC wants many-writer pages whose diffs are BULKY — migratory
		// data each writer rewrites nearly whole, where a reader's diff
		// collection moves a page's worth of bytes in k messages and one
		// home fetch would do. Falsely-shared fine-grain pages also show
		// many writers, but their diffs are tiny and MW's lazy merging is
		// exactly right for them, so the detector's write-granularity
		// average is the gate, not its false-sharing bit. The detector is
		// only trustworthy when every node's writes are visible to this
		// instance, i.e. not on a partial (multi-process) deployment.
		// The average is only trusted once the page has produced at least
		// one diff per observed writer (minus the epoch's first, which has
		// no prior copy): a single initialization diff must not pass for a
		// write-granularity profile.
		dp := &c.detector.pages[pg]
		bulky := dp.diffCount >= int64(nw-1) && dp.diffCount > 0 &&
			dp.diffBytes >= dp.diffCount*int64(mem.PageSize/4)
		hlrcReady := ap.hlrcRun >= adaptHLRCEpochs && ad.hlrcOK &&
			!c.Partial() && bulky
		var sw policySwitch
		switch {
		case ap.proto == ad.wfs && ap.multi >= adaptMultiEpochs:
			// Concurrent writers under the ownership protocol: pure
			// refusal churn, demote. (Solo-writer identity changes are NOT
			// a demotion signal: alternating band-boundary writers ping
			// ownership over cheaply, exactly what SW-class protocols are
			// for.)
			target := ad.mw
			if hlrcReady {
				target = ad.hlrc
			}
			sw = policySwitch{Page: pg, Proto: int32(target)}
		case ap.proto == ad.mw && hlrcReady:
			// Many concurrent writers every epoch: each reader merges that
			// many diffs per fault and the diff pool feeds garbage
			// collection; one home round trip wins.
			sw = policySwitch{Page: pg, Proto: int32(ad.hlrc)}
		case ap.proto != ad.wfs && !ap.everMulti &&
			popcount(dp.accessors&^dp.writers) <= adaptMaxReaders &&
			(ap.solo >= adaptSoloSlow ||
				ap.solo >= adaptSoloEpochs && dp.maxDiff >= adaptBulkThreshold):
			// A single writer has prevailed on a page that has NEVER shown
			// concurrent writers and that almost nobody else reads: hand it
			// to the ownership-based protocol with that writer as its
			// owner, who then writes without twins or diffs. Bulk rewriters
			// (diffs a good fraction of the page) promote on the short
			// streak — every MW epoch costs them twin+diff page copies, so
			// delay is expensive. Fine-grain solo pages promote on the long
			// streak only: their twins are cheap, so the promotion must
			// first prove the page is not a mostly-solo page with periodic
			// multi-writer bursts, which would churn through promote/demote
			// cycles. The everMulti and reader gates keep burst-prone and
			// widely-read pages (positions, bodies, pedigree banks) in MW,
			// whose lazy diffs serve them more cheaply than owner page
			// fetches. The version is bumped past everything ever published
			// so no stale ex-owner can satisfy a grant check.
			ap.maxVer++
			sw = policySwitch{Page: pg, Proto: int32(ad.wfs), Owner: ap.soloWriter, Version: ap.maxVer}
		default:
			continue
		}
		ap.proto = Protocol(sw.Proto)
		ap.switches++
		ap.solo, ap.multi, ap.hlrcRun = 0, 0, 0
		out = append(out, sw)
	}
	return out
}

// soloBit returns the index of the single set bit of a one-bit mask.
func soloBit(mask uint64) int {
	i := 0
	for mask > 1 {
		mask >>= 1
		i++
	}
	return i
}

// applyPolicySwitches re-points the switched pages at their new protocols.
// Every node runs this in process context while ingesting a barrier
// release — after the global knowledge is merged, before the per-protocol
// release hooks — so all nodes flip a page at the same epoch, with no app
// code running and no interval open.
func (n *Node) applyPolicySwitches(sws []policySwitch) {
	ad := n.c.adapt
	for _, sw := range sws {
		ps := n.pages[sw.Page]
		target := Protocol(sw.Proto)
		if ps.proto == target {
			continue
		}
		// The page changes protocol (and possibly applied vector) below:
		// retract any one-sided publication built under the old policy.
		n.invalidateRegion(sw.Page, ps)
		toWFS := target == ad.wfs
		toHLRC := ad.hlrcOK && target == ad.hlrc

		// The page's lazy diff must be materialized under the OLD
		// protocol: after the flip, a later write would reuse the same
		// twin and leak post-switch data into the pre-switch diff.
		if ps.undiffed != nil {
			d := n.makeDiff(sw.Page, ps)
			n.proc.Advance(n.c.params.diffCost(d))
		}

		// Drain: the node the NEW protocol treats as the page's data
		// authority — the WFS keeper, the HLRC home — brings its copy
		// fully current under the OLD policy, while the diffs backing the
		// old history are still serviceable. Peers that fetch from the
		// authority before its drain completes converge through their
		// protocols' own retry loops.
		authority := (toWFS && sw.Owner == n.id) ||
			(toHLRC && n.resolveHome(sw.Page) == n.id)
		if authority && (ps.data == nil || ps.status == pageInvalid || len(ps.pending) > 0) {
			n.validate(sw.Page)
			if ps.status == pageInvalid && ps.data != nil {
				ps.status = pageReadOnly
			}
		}
		if toHLRC && n.resolveHome(sw.Page) == n.id {
			// The drained home copy subsumes every owner copy published
			// before the switch (the chain-head fetch plus the concurrent
			// diffs), but the LRC merge keeps the applied vector
			// conservative about concurrent owner intervals — it force-drops
			// owner notices instead of dominating them. HLRC readers settle
			// by applied domination alone, so fold every known notice's
			// interval into the home's applied vector; content-wise it is
			// already there.
			for _, wn := range ps.knownWNs {
				ps.applied.Join(wn.Int.VC)
			}
		}

		// Wash the old protocol's authority and adaptation state. Copies,
		// pending notices and known write notices survive: the new
		// protocol's fault paths consume them.
		ps.owner = false
		ps.wasLast = false
		ps.dropOwnership = false
		ps.wroteSW = false
		ps.seesFS = false
		ps.copysetFS = nil
		ps.wgProbed = false
		if ps.status == pageReadWrite {
			ps.status = pageReadOnly
		}

		// Seed the new protocol's per-page state. Mode flips directly (not
		// setMode): a protocol switch is not an SW/MW adaptation event.
		switch {
		case toWFS:
			ps.mode = modeSW
			if sw.Owner == n.id {
				ps.owner = true
				ps.version = sw.Version
				ps.perceivedOwner = n.id
				ps.perceivedVersion = sw.Version
				ps.ownedSince = n.proc.Now()
			} else {
				ps.perceivedOwner = sw.Owner
				ps.perceivedVersion = sw.Version
			}
		case toHLRC:
			ps.mode = modeMW
			ps.perceivedOwner = n.resolveHome(sw.Page)
		default: // MW
			ps.mode = modeMW
		}

		ps.proto = target
		ps.policy = n.c.policyFor(target)
		n.Stats.PolicySwitches++
		switch {
		case toWFS:
			n.Stats.SwitchToSW++
		case toHLRC:
			n.Stats.SwitchToHLRC++
		default:
			n.Stats.SwitchToMW++
		}
	}
}
