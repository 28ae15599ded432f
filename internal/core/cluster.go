package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"adsm/internal/mem"
	"adsm/internal/stats"
	"adsm/internal/transport"
)

// Cluster is a DSM system: Procs nodes, a transport moving the protocol
// messages, and the shared segment. Create one with New, allocate shared
// memory with Alloc, then Run the SPMD program. The transport substrate —
// the deterministic simulator or a real runtime — is chosen by
// Params.Runtime; protocol code only ever sees the transport seam.
type Cluster struct {
	params Params
	policy Policy
	homes  HomeAssigner
	rt     transport.Runtime
	local  []int // node ids hosted by this runtime instance
	nodes  []*Node

	npages    int // the Alloc bound: MaxSharedBytes in pages
	allocated int
	allocs    []allocSpan
	started   bool

	locks map[int]*mgrLock
	bar   barrierMgr
	rec   recoverMgr

	// Per-page policy delegation: one shared instance per protocol a page
	// has been switched to (policies are stateless; pages hold pointers
	// into this cache so identity comparisons are meaningful per cluster).
	polMu    sync.Mutex
	policies map[Protocol]Policy

	detector *Detector

	// oneSided is the transport's one-sided read facility when the runtime
	// implements it with a negotiated region lane; nil otherwise (the
	// simulator, or tcp with -onesided=false).
	oneSided transport.OneSided

	// Adaptive meta-protocol decision state (nil under static protocols).
	adapt *adaptState

	// Figure 3 instrumentation: total live diffs across all nodes.
	totalLiveDiffs int64
	DiffSeries     *stats.Series

	gcRuns int64
}

// New creates a cluster with the given parameters.
func New(p Params) *Cluster {
	if p.Procs < 1 {
		panic("dsm: need at least one processor")
	}
	if p.Procs > 64 {
		panic("dsm: detector bitmasks support at most 64 processors")
	}
	npages := (p.MaxSharedBytes + mem.PageSize - 1) / mem.PageSize
	c := &Cluster{
		params:   p,
		policy:   p.Protocol.newPolicy(),
		homes:    p.Home.newAssigner(),
		npages:   npages,
		locks:    make(map[int]*mgrLock),
		detector: newDetector(p.Procs, 0),
	}
	if p.Runtime != nil {
		c.rt = p.Runtime(p)
	} else {
		if transport.DefaultRuntime == nil {
			panic("dsm: no transport runtime configured and no default registered (import adsm/internal/sim)")
		}
		c.rt = transport.DefaultRuntime(p.Procs, p.Net, p.EventLimit)
	}
	c.local = c.rt.LocalNodes()
	// Node state exists for every node (handlers route by id and the
	// single-process GC scan reads it), but only hosted nodes register
	// handlers, get their pages initialized, and execute bodies. Page
	// state is created by Alloc, as allocations cover pages.
	for i := 0; i < p.Procs; i++ {
		c.nodes = append(c.nodes, newNode(c, i))
	}
	for _, i := range c.local {
		n := c.nodes[i]
		c.rt.Register(i, func(call transport.Call, from int, m transport.Msg) {
			n.handle(call, from, m)
		})
	}
	return c
}

// Params returns the cluster's configuration.
func (c *Cluster) Params() Params { return c.params }

// Transport exposes the transport runtime (for traffic accounting and
// time queries).
func (c *Cluster) Transport() transport.Runtime { return c.rt }

// Net is a legacy alias for Transport.
func (c *Cluster) Net() transport.Runtime { return c.rt }

// Partial reports whether this cluster instance hosts only a subset of the
// nodes (one endpoint of a multi-process deployment). Statistics and
// checksums of a partial cluster cover the hosted nodes only.
func (c *Cluster) Partial() bool { return len(c.local) < c.params.Procs }

// Hosts reports whether node id's body executes in this cluster instance.
func (c *Cluster) Hosts(id int) bool {
	for _, l := range c.local {
		if l == id {
			return true
		}
	}
	return false
}

// Node returns node i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Detector returns the sharing-characteristics instrumentation.
func (c *Cluster) Detector() *Detector { return c.detector }

// policyFor returns the cluster's shared policy instance for a protocol
// id, building it on first use. Pages compare protocols by ps.proto (the
// id), never by interface identity; the cache only keeps instance count at
// one per protocol. Safe from handler goroutines (real transports).
func (c *Cluster) policyFor(id Protocol) Policy {
	if id == c.params.Protocol {
		return c.policy
	}
	c.polMu.Lock()
	defer c.polMu.Unlock()
	if p, ok := c.policies[id]; ok {
		return p
	}
	if c.policies == nil {
		c.policies = make(map[Protocol]Policy)
	}
	p := id.newPolicy()
	c.policies[id] = p
	return p
}

// GCRuns reports how many garbage collections ran.
func (c *Cluster) GCRuns() int64 { return c.gcRuns }

// homeOf returns the home of a page under the cluster's home policy, or
// -1 when it is not yet bound (first touch). Non-blocking; processes that
// may need to bind a page use Node.resolveHome instead.
func (c *Cluster) homeOf(pg int) int { return c.homes.Lookup(c, pg) }

// Homes exposes the home assigner (for tests and instrumentation).
func (c *Cluster) Homes() HomeAssigner { return c.homes }

// allocSpan records one Alloc call so allocation-aware home policies
// (round-robin-alloc) can reconstruct the data layout.
type allocSpan struct{ addr, size int }

// usedPages returns the number of pages covered by allocations.
func (c *Cluster) usedPages() int {
	return (c.allocated + mem.PageSize - 1) / mem.PageSize
}

// Allocated returns the shared segment size in bytes.
func (c *Cluster) Allocated() int { return c.allocated }

// Alloc reserves n bytes of shared memory before Run. The returned
// address is always 8-byte aligned, so any supported element type is
// naturally aligned at it. Pages are zero-initialized and initially owned
// by node 0, like Tmk_malloc on the allocating processor.
func (c *Cluster) Alloc(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("dsm: Alloc(%d): allocation size must be positive", n))
	}
	addr := (c.allocated + 7) &^ 7
	if addr+n > c.npages*mem.PageSize {
		panic(fmt.Sprintf("dsm: shared segment exhausted (%d + %d > %d)", addr, n, c.npages*mem.PageSize))
	}
	c.noteAlloc(addr, n)
	return addr
}

// noteAlloc records an allocation and grows every node's page state to
// cover it.
func (c *Cluster) noteAlloc(addr, n int) {
	if c.started {
		panic("dsm: Alloc after Run")
	}
	c.allocated = addr + n
	c.allocs = append(c.allocs, allocSpan{addr: addr, size: n})
	for _, nd := range c.nodes {
		nd.sizePages(c.usedPages())
	}
}

// AllocPageAligned reserves n bytes starting on a page boundary.
func (c *Cluster) AllocPageAligned(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("dsm: AllocPageAligned(%d): allocation size must be positive", n))
	}
	addr := (c.allocated + mem.PageSize - 1) &^ (mem.PageSize - 1)
	if addr+n > c.npages*mem.PageSize {
		panic("dsm: shared segment exhausted")
	}
	c.noteAlloc(addr, n)
	return addr
}

// Run executes body on every node (SPMD) and returns the virtual time at
// completion. Page state is initialized here — after every allocation, so
// allocation-aware home policies see the final data layout — rather than
// at construction.
func (c *Cluster) Run(body func(n *Node)) (transport.Time, error) {
	if c.started {
		panic("dsm: cluster already ran")
	}
	c.started = true
	// Allocation is frozen from here on, so every per-page table is sized
	// to the allocated segment once.
	used := c.usedPages()
	c.detector.pages = make([]detPage, used)
	c.homes.Prepare(c)
	for _, i := range c.local {
		n := c.nodes[i]
		for pg, ps := range n.pages {
			c.policy.InitPage(c, n.id, pg, ps)
		}
	}
	if os, ok := c.rt.(transport.OneSided); ok && os.OneSidedEnabled() {
		c.oneSided = os
		for _, i := range c.local {
			n := c.nodes[i]
			n.region = make([]atomic.Pointer[regionPub], used)
			os.RegisterRegion(i, n.serveRegion)
			// Publish every initial copy (homes, initial owners): until the
			// page first mutates, these are exactly what the handler would
			// serve, so even first-epoch fetches can go one-sided.
			for pg, ps := range n.pages {
				if ps.data != nil {
					snap := make([]byte, len(ps.data))
					copy(snap, ps.data)
					n.publishRegion(pg, ps, snap, ps.applied.Copy())
				}
			}
		}
	}
	for _, i := range c.local {
		n := c.nodes[i]
		c.rt.Spawn(i, fmt.Sprintf("node%d", i), func(p transport.Proc) {
			n.proc = p
			body(n)
		})
	}
	if err := c.rt.Run(); err != nil {
		return c.rt.Now(), err
	}
	return c.rt.Now(), nil
}

// handle dispatches an incoming protocol message (handler context; must
// not block).
func (n *Node) handle(call transport.Call, from int, m transport.Msg) {
	switch msg := m.(type) {
	case pageReq:
		n.servePage(call, from, msg)
	case diffReq:
		n.serveDiffs(call, from, msg)
	case spanFetchReq:
		n.serveSpanFetch(call, from, msg)
	case ownReq:
		n.serveOwnership(call, from, msg)
	case ownBatchReq:
		n.serveOwnBatch(call, from, msg)
	case swOwnReq:
		n.serveSWOwn(call, from, msg)
	case hlrcFlush:
		n.serveHLRCFlush(call, from, msg)
	case acqReq:
		n.serveAcqReq(call, from, msg)
	case acqFwd:
		n.serveAcqFwd(call, from, msg)
	case barArrive:
		n.serveBarrier(call, from, msg)
	case homeBindReq:
		n.c.homes.(homeBinder).serveBind(n, call, from, msg)
	case ckptPut:
		n.serveCkptPut(call, from, msg)
	case recArrive:
		n.serveRecArrive(call, from, msg)
	case recProtoArrive:
		n.serveRecProto(call, from, msg)
	default:
		panic(fmt.Sprintf("dsm: node %d received unknown message %T", n.id, m))
	}
}

// noteDiffCount maintains the cluster-wide live diff count (Figure 3).
func (c *Cluster) noteDiffCount(delta int64) {
	c.totalLiveDiffs += delta
	if c.DiffSeries != nil {
		c.DiffSeries.Append(int64(c.rt.Now()), c.totalLiveDiffs)
	}
}

// Totals aggregates all nodes' statistics.
func (c *Cluster) Totals() stats.Node {
	ns := make([]*stats.Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		ns = append(ns, &n.Stats)
	}
	return stats.Sum(ns)
}
