// Package adsm is a software distributed shared memory (DSM) system
// implementing the adaptive lazy-release-consistency protocols of Amza,
// Cox, Dwarkadas and Zwaenepoel, "Software DSM Protocols that Adapt
// between Single Writer and Multiple Writer" (HPCA 1997).
//
// Four protocols are provided:
//
//   - MW — the TreadMarks multiple-writer protocol (twins and diffs),
//   - SW — a CVM-like single-writer protocol (page ownership, versions),
//   - WFS — adapts per page between SW and MW on write-write false
//     sharing, detected by the ownership refusal protocol,
//   - WFSWG — WFS plus write-granularity adaptation (3 KB threshold).
//
// Programs are SPMD: the same body runs on every simulated processor,
// communicating only through the shared segment and the lock/barrier
// primitives, exactly like a TreadMarks application. Shared memory is
// typed — AllocArray reserves a Shared[T] array whose handle works on
// every worker — with per-element ops and a span/bulk fast path that
// resolves the coherence work once per page (see shared.go):
//
//	cl := adsm.NewCluster(adsm.Config{Procs: 8, Protocol: adsm.WFS})
//	x := adsm.AllocArray[uint64](cl, 1)
//	report, err := cl.Run(func(w *adsm.Worker) {
//	    w.Lock(0)
//	    x.Set(w, 0, x.At(w, 0)+1)
//	    w.Unlock(0)
//	    w.Barrier()
//	})
//
// The cluster is a deterministic discrete-event simulation calibrated to
// the paper's platform (8 SPARC-20s on 155 Mbps ATM: 1 ms small-message
// round trip, 1921 us remote page miss, 104 us twin, 179 us diff), so
// reports carry both the virtual execution time and the full protocol
// statistics needed to reproduce the paper's tables and figures.
package adsm

import (
	"fmt"
	"time"

	"adsm/internal/core"
	"adsm/internal/mem"
	"adsm/internal/sim"
	"adsm/internal/stats"
	"adsm/internal/transport"
)

// PageSize is the coherence unit (4096 bytes, as in the paper).
const PageSize = mem.PageSize

// Protocol selects the coherence protocol for a cluster. Values are ids
// into the protocol registry; the built-in constants are stable.
type Protocol int

const (
	// MW is the TreadMarks multiple-writer protocol.
	MW Protocol = iota
	// SW is the CVM-like single-writer protocol.
	SW
	// WFS adapts between SW and MW based on write-write false sharing.
	WFS
	// WFSWG adapts based on false sharing and write granularity.
	WFSWG
)

// HLRC is home-based lazy release consistency: writers eagerly flush their
// diffs to a static per-page home at every release, and faulting nodes
// fetch the whole page from the home — no diff accumulation, no garbage
// collection. It is registered through RegisterProtocol, as a template for
// further plug-in protocols.
var HLRC = MustRegisterProtocol(ProtocolSpec{
	Name:        "HLRC",
	Description: "home-based LRC: eager diff flush to static per-page homes",
	New:         core.NewHLRCPolicy,
})

// Adaptive is the per-page adaptive meta-protocol: every page starts under
// WFS, and at each barrier the manager watches the page's write notices
// and the sharing detector, migrating individual pages to MW (sustained
// concurrent writing), to HLRC (falsely shared with a settled home), or
// back to WFS (a single writer re-emerges). Switch decisions are broadcast
// on the barrier release so all nodes flip a page at the same epoch.
// Config.AdaptiveFreeze pins it to one static protocol for equivalence
// testing.
var Adaptive = MustRegisterProtocol(ProtocolSpec{
	Name:        "adaptive",
	Aliases:     []string{"adapt", "meta"},
	Description: "meta-protocol: pages migrate between WFS, MW and HLRC at barrier epochs",
	New:         core.NewAdaptivePolicy,
})

// HomePolicy selects how pages are assigned to home nodes for the
// home-based protocols (SW request routing, HLRC diff flushing). Values
// are ids into the home-policy registry; the built-in constants are
// stable. Protocols that never consult a home (MW, WFS, WFS+WG) ignore
// the setting.
type HomePolicy int

const (
	// StaticHomes places page pg at node pg % procs (the default).
	StaticHomes HomePolicy = iota
	// FirstTouchHomes binds a page's home at its first fault, agreed
	// cluster-wide through the allocator (node 0).
	FirstTouchHomes
	// RoundRobinAllocHomes stripes homes per Alloc call so each array's
	// pages spread evenly over the processors.
	RoundRobinAllocHomes
	// BlockHomes assigns contiguous page ranges per processor, matching
	// band partitioning (SOR/Shallow row decompositions).
	BlockHomes
)

// HomeSpec describes a home policy implementation for RegisterHomePolicy.
// Like protocol policies, implementations live in internal/core; the spec
// binds one to a name, aliases, and a description.
type HomeSpec = core.HomeSpec

// RegisterHomePolicy adds a home policy to the registry, making it
// selectable by Config.HomePolicy, ParseHomePolicy, the harness home
// sweep, and the CLI -home flags.
func RegisterHomePolicy(s HomeSpec) (HomePolicy, error) {
	id, err := core.RegisterHome(s)
	return HomePolicy(id), err
}

// MustRegisterHomePolicy is RegisterHomePolicy, panicking on error.
func MustRegisterHomePolicy(s HomeSpec) HomePolicy {
	return HomePolicy(core.MustRegisterHome(s))
}

// ParseHomePolicy resolves a home policy name — canonical or alias,
// case-insensitive — such as "static", "first-touch" or "rr-alloc".
func ParseHomePolicy(name string) (HomePolicy, error) {
	id, err := core.ParseHome(name)
	return HomePolicy(id), err
}

// HomePolicies lists every registered home policy in registration order.
func HomePolicies() []HomePolicy {
	ids := core.RegisteredHomes()
	out := make([]HomePolicy, len(ids))
	for i, id := range ids {
		out[i] = HomePolicy(id)
	}
	return out
}

// HomePolicyNames lists the canonical names of every registered home
// policy.
func HomePolicyNames() []string { return core.HomeNames() }

func (h HomePolicy) String() string { return h.core().String() }

// Description returns the home policy's one-line summary.
func (h HomePolicy) Description() string { return h.core().Description() }

func (h HomePolicy) core() core.Home { return core.Home(h) }

// WithHomePolicy returns a Config mutator selecting the home policy —
// convenient for sweeps that vary one dimension of an otherwise shared
// configuration (the harness home sweep uses it).
func WithHomePolicy(h HomePolicy) func(*Config) {
	return func(c *Config) { c.HomePolicy = h }
}

// WithPerWordSpans returns a Config mutator toggling the span fast path —
// the harness span experiment uses it to run the same kernel both ways.
func WithPerWordSpans(on bool) func(*Config) {
	return func(c *Config) { c.PerWordSpans = on }
}

// WithOmitWrites returns a Config mutator toggling the omittable-write
// pass — the serve sweep runs its write-heavy cell both ways to pin that
// omission changes traffic, never results.
func WithOmitWrites(on bool) func(*Config) {
	return func(c *Config) { c.OmitWrites = on }
}

// PrefetchMode selects whether spans batch the page fetches of their
// whole extent into one overlapped Multicall (span prefetch). The zero
// value is on — prefetch is the default engine.
type PrefetchMode int

const (
	// PrefetchOn batches a span's coherence fetches: one request per
	// destination node covering all of the span's pages, every
	// destination overlapped in a single Multicall.
	PrefetchOn PrefetchMode = iota
	// PrefetchOff restores the serial engine: one blocking fault per
	// page, in page order — exactly the pre-prefetch behavior, which is
	// what the equivalence tests compare against.
	PrefetchOff
)

func (m PrefetchMode) String() string {
	if m == PrefetchOff {
		return "off"
	}
	return "on"
}

// WithSpanPrefetch returns a Config mutator toggling the span-prefetch
// batching — the harness prefetch experiment runs every cell both ways.
func WithSpanPrefetch(on bool) func(*Config) {
	return func(c *Config) {
		if on {
			c.SpanPrefetch = PrefetchOn
		} else {
			c.SpanPrefetch = PrefetchOff
		}
	}
}

// ProtocolSpec describes a protocol implementation for RegisterProtocol.
// Implementations live in internal/core (they plug into the engine's
// Policy seam); the spec binds one to a name, aliases, and a description.
type ProtocolSpec = core.Spec

// RegisterProtocol adds a protocol to the registry, making it selectable
// by Config.Protocol, ParseProtocol, the harness matrix, and the CLI
// flags. It fails if the spec is incomplete or a name is already taken.
func RegisterProtocol(s ProtocolSpec) (Protocol, error) {
	id, err := core.Register(s)
	return Protocol(id), err
}

// MustRegisterProtocol is RegisterProtocol, panicking on error.
func MustRegisterProtocol(s ProtocolSpec) Protocol {
	return Protocol(core.MustRegister(s))
}

// ParseProtocol resolves a protocol name — canonical or alias, case-
// insensitive — such as "MW", "wfs+wg" or "HLRC".
func ParseProtocol(name string) (Protocol, error) {
	id, err := core.ParseProtocol(name)
	return Protocol(id), err
}

// Protocols lists every registered protocol in registration order (the
// paper's four, then HLRC, then any later registrations).
func Protocols() []Protocol {
	ids := core.RegisteredProtocols()
	out := make([]Protocol, len(ids))
	for i, id := range ids {
		out[i] = Protocol(id)
	}
	return out
}

// ProtocolNames lists the canonical names of every registered protocol.
func ProtocolNames() []string { return core.ProtocolNames() }

func (p Protocol) String() string { return p.core().String() }

// Description returns the protocol's one-line summary.
func (p Protocol) Description() string { return p.core().Description() }

func (p Protocol) core() core.Protocol { return core.Protocol(p) }

// Config describes a cluster. Zero values select the paper's defaults.
type Config struct {
	// Procs is the number of processors (default 8, the paper's cluster).
	Procs int
	// Protocol selects the coherence protocol (default MW).
	Protocol Protocol
	// HomePolicy selects the page-to-home assignment for the home-based
	// protocols (default StaticHomes).
	HomePolicy HomePolicy
	// SharedBytes bounds the shared segment (default 64 MB). It only
	// limits Alloc: no memory is committed for reserved but unallocated
	// pages, so a cluster's footprint tracks the data it allocates.
	SharedBytes int
	// DiffSpaceLimit is the per-node twin+diff pool size that triggers
	// garbage collection at the next barrier (default 1 MB).
	DiffSpaceLimit int64
	// WGThreshold is the WFS+WG diff-size threshold (default 3 KB).
	WGThreshold int
	// OwnershipQuantum is the SW protocol's minimum ownership tenure
	// (default 1 ms).
	OwnershipQuantum time.Duration
	// CollectDiffTimeline records the cluster-wide live-diff count over
	// time (the paper's Figure 3).
	CollectDiffTimeline bool
	// PerWordSpans disables the span/bulk fast path: every Span, ReadAt,
	// WriteAt and Fill degenerates to one protocol check per element, the
	// cost model the per-word accessors pay. Coherence behavior is
	// identical either way — the span experiment (`dsmbench -exp span`)
	// and the equivalence tests run both and assert identical checksums
	// and protocol counters — so the flag exists to measure and pin the
	// fast path, not to change semantics.
	PerWordSpans bool
	// SpanPrefetch selects whether a span's page fetches are batched into
	// one overlapped Multicall (the default, PrefetchOn) or serviced one
	// blocking fault at a time (PrefetchOff, the serial engine). Results
	// are identical either way — `dsmbench -exp prefetch` and the
	// equivalence tests pin bit-identical checksums — batching only
	// collapses the sequential round-trip stalls. PerWordSpans implies
	// off (the per-word degrade path has no spans to plan).
	SpanPrefetch PrefetchMode
	// AdaptiveFreeze pins the Adaptive meta-protocol to one static
	// protocol by name (e.g. "MW"): every page initializes under that
	// protocol and the manager never issues switches, making a frozen
	// adaptive run byte-for-byte identical to the static protocol — the
	// equivalence pin the adaptive tests rely on. Empty adapts freely;
	// ignored by the static protocols.
	AdaptiveFreeze string
	// OmitWrites enables the omittable-write pass for policies that opt in
	// (currently the MW family): a diff that never left its node and whose
	// byte extent the node's next diff for the page fully covers is
	// provably dead — every observer would overwrite it — so its payload
	// is dropped, counted in Stats.OmittedWrites/OmittedBytes. Results are
	// bit-identical either way (the serve sweep pins this); the knob
	// defaults off so archived baselines keep their traffic numbers.
	OmitWrites bool
	// Transport selects the substrate carrying the protocol messages
	// (default SimTransport, the deterministic simulator).
	Transport Transport
	// TCP tunes the TCP transport (ignored under SimTransport).
	TCP TCPConfig

	// ckptStores resolves each hosted rank's durable checkpoint store.
	// Set by the recoverable drivers (recover.go), which own the stores
	// across cluster incarnations; nil disables checkpointing.
	ckptStores func(rank int) *core.CkptStore
}

// Cluster is a simulated DSM machine. Allocate shared memory with Alloc,
// then execute an SPMD program with Run (once per cluster).
type Cluster struct {
	c      *core.Cluster
	cfg    Config
	series *stats.Series
	ran    bool
}

// NewClusterErr builds a cluster from cfg, returning transport
// construction failures (an unreachable peer mesh, a bad listen address, a
// peer running a different configuration) as an error instead of a panic.
// Prefer it whenever cfg selects a real transport. Panics that are not
// transport failures (engine bugs) propagate unchanged, stack and all.
func NewClusterErr(cfg Config) (cl *Cluster, err error) {
	defer func() {
		if r := recover(); r != nil {
			te, ok := r.(transportError)
			if !ok {
				panic(r)
			}
			cl, err = nil, te.err
		}
	}()
	return NewCluster(cfg), nil
}

// NewCluster builds a cluster from cfg.
func NewCluster(cfg Config) *Cluster {
	if cfg.Procs == 0 {
		cfg.Procs = 8
	}
	p := core.DefaultParams(cfg.Procs)
	p.Protocol = cfg.Protocol.core()
	p.Home = cfg.HomePolicy.core()
	if cfg.SharedBytes > 0 {
		p.MaxSharedBytes = cfg.SharedBytes
	}
	if cfg.DiffSpaceLimit > 0 {
		p.DiffSpaceLimit = cfg.DiffSpaceLimit
	}
	if cfg.WGThreshold > 0 {
		p.WGThreshold = cfg.WGThreshold
	}
	if cfg.OwnershipQuantum > 0 {
		p.OwnershipQuantum = sim.Time(cfg.OwnershipQuantum)
	}
	p.PerWordSpans = cfg.PerWordSpans
	p.AdaptiveFreeze = cfg.AdaptiveFreeze
	p.SpanPrefetch = cfg.SpanPrefetch == PrefetchOn
	p.OmitWrites = cfg.OmitWrites
	p.CkptStores = cfg.ckptStores
	p.Runtime = cfg.runtimeFactory()
	cl := &Cluster{c: core.New(p), cfg: cfg}
	if cfg.CollectDiffTimeline {
		cl.series = &stats.Series{Name: "live-diffs"}
		cl.c.DiffSeries = cl.series
	}
	return cl
}

// Addr is a byte address within the shared segment.
type Addr = int

// Alloc reserves n bytes of zeroed shared memory. The returned address is
// guaranteed to be 8-byte aligned, so any supported element type placed at
// it is naturally aligned and no element straddles a page boundary. The
// pages are initially owned by processor 0, like Tmk_malloc. Must be
// called before Run; n <= 0 panics (a zero-byte reservation is always a
// caller bug — it would silently hand out an address aliasing the next
// allocation). Prefer AllocArray for typed data.
func (cl *Cluster) Alloc(n int) Addr {
	if cl.ran {
		panic("adsm: Alloc after Run")
	}
	return cl.c.Alloc(n)
}

// AllocPageAligned reserves n bytes starting on a page boundary; use it to
// control how data structures map onto coherence units. Like Alloc it
// rejects n <= 0 with a panic.
func (cl *Cluster) AllocPageAligned(n int) Addr {
	if cl.ran {
		panic("adsm: Alloc after Run")
	}
	return cl.c.AllocPageAligned(n)
}

// Hosts reports whether this cluster instance executes node id's body
// (always true under the simulator; under a multi-process transport only
// for the locally hosted nodes — node 0 is the one whose body computes
// application checksums).
func (cl *Cluster) Hosts(id int) bool { return cl.c.Hosts(id) }

// ErrGCUnsupported is returned (wrapped) by Run when barrier-time garbage
// collection triggers on a multi-process transport: the hint scan needs
// every node's page state in one address space. Match with errors.Is and
// retry with HLRC or a larger DiffSpaceLimit. Only the process hosting
// node 0 (the barrier manager) observes this error; its peers see the
// mesh tear down.
var ErrGCUnsupported = core.ErrGCUnsupported

// ErrPeerLost is returned (wrapped) by Run under the TCP transport when a
// peer's connection breaks without the orderly bye that ends a healthy
// run: the peer crashed or was killed. Match with errors.Is; recoverable
// runs (RunRecoverable, dsmnode) rebuild the cluster and restore the last
// checkpoint when they see it.
var ErrPeerLost error = transport.ErrPeerLost{}

// ErrLeaseExpired is returned (wrapped) by Run when membership leases are
// on (TCPConfig.LeaseTerm) and a peer stopped answering heartbeats for a
// full lease term: the process is wedged or partitioned and must be
// treated as dead. Match with errors.Is.
var ErrLeaseExpired error = transport.ErrLeaseExpired{}

// ErrCkptCorrupt is returned (wrapped) by a recovering Run when a
// checkpoint needed for recovery fails its per-page checksum: the replica
// is damaged and recovery refuses to invent data. Match with errors.Is.
var ErrCkptCorrupt = core.ErrCkptCorrupt

// ErrCkptUnrecoverable is returned (wrapped) by a recovering Run when the
// surviving checkpoint stores cannot cover every partition — more state
// was lost than the single buddy replica tolerates. Match with errors.Is.
var ErrCkptUnrecoverable = core.ErrCkptUnrecoverable

// Run executes program on every processor and returns the report. A
// cluster can run only once.
func (cl *Cluster) Run(program func(w *Worker)) (*Report, error) {
	if cl.ran {
		return nil, fmt.Errorf("adsm: cluster already ran")
	}
	cl.ran = true
	elapsed, err := cl.c.Run(func(n *core.Node) {
		program(&Worker{n: n})
	})
	if err != nil {
		return nil, err
	}
	return cl.report(elapsed), nil
}

// report assembles the public Report from internal counters.
func (cl *Cluster) report(elapsed sim.Time) *Report {
	tot := cl.c.Totals()
	ch := cl.c.Detector().Characteristics((cl.c.Allocated() + PageSize - 1) / PageSize)
	r := &Report{
		Protocol:  cl.cfg.Protocol,
		Home:      cl.cfg.HomePolicy,
		Procs:     cl.cfg.Procs,
		Transport: cl.cfg.Transport,
		Partial:   cl.c.Partial(),
		Elapsed:   elapsed.Duration(),
		Stats: Stats{
			Messages:          cl.c.Transport().TotalMsgs(),
			DataBytes:         cl.c.Transport().TotalBytes(),
			ReadFaults:        tot.ReadFaults,
			WriteFaults:       tot.WriteFaults,
			PageFetches:       tot.PageFetches,
			OwnershipRequests: tot.OwnReqs,
			OwnershipGrants:   tot.OwnGrants,
			OwnershipRefusals: tot.OwnRefusals,
			Forwards:          tot.Forwards,
			TwinsCreated:      tot.TwinsCreated,
			DiffsCreated:      tot.DiffsCreated,
			DiffsApplied:      tot.DiffsApplied,
			TwinBytes:         tot.CumTwinBytes,
			DiffBytes:         tot.CumDiffBytes,
			MaxLiveTwinDiff:   tot.MaxLiveBytes,
			LockAcquires:      tot.LockAcquires,
			Barriers:          tot.Barriers,
			SWtoMW:            tot.SWtoMW,
			MWtoSW:            tot.MWtoSW,
			PolicySwitches:    tot.PolicySwitches,
			SwitchToSW:        tot.SwitchToSW,
			SwitchToMW:        tot.SwitchToMW,
			SwitchToHLRC:      tot.SwitchToHLRC,
			GCRuns:            cl.c.GCRuns(),
			HomeFlushes:       tot.HomeFlushes,
			HomeFlushBytes:    tot.HomeFlushBytes,
			HomeLocalDiffs:    tot.HomeLocalDiffs,
			HomeBinds:         tot.HomeBinds,
			BatchedFetches:    tot.BatchedFetches,
			PrefetchPages:     tot.PrefetchPages,
			SerialFallbacks:   tot.SerialFallbacks,
			OneSidedReads:     tot.OneSidedReads,
			OneSidedFallbacks: tot.OneSidedFallbacks,
			BatchedOwnReqs:    tot.BatchedOwnReqs,
			OmittedWrites:     tot.OmittedWrites,
			OmittedBytes:      tot.OmittedBytes,
			Checkpoints:       tot.Checkpoints,
			Recoveries:        tot.Recoveries,
		},
		Sharing: Sharing{
			SharedPages:  ch.SharedPages,
			WrittenPages: ch.WrittenPages,
			FSPages:      ch.FSPages,
			FSPercent:    ch.FSPercent,
			AvgDiffBytes: ch.AvgDiffBytes,
			MaxDiffBytes: ch.MaxDiffBytes,
		},
	}
	if ws, ok := cl.c.Transport().(transport.WireStats); ok {
		r.Stats.WireFrames = ws.WireFrames()
		r.Stats.WireBytes = ws.WireBytes()
		r.Stats.WireEncodeNS = ws.WireEncodeNanos()
		r.Stats.LaneBytes = ws.LaneBytes()
		r.Stats.LaneQueueDepth = ws.LaneQueueDepth()
		r.Stats.LaneQueueHWM = ws.LaneQueueHWM()
	}
	if cl.series != nil {
		r.DiffTimeline = make([]TimelinePoint, 0, len(cl.series.Points))
		for _, p := range cl.series.Points {
			r.DiffTimeline = append(r.DiffTimeline, TimelinePoint{
				T:         time.Duration(p.T),
				LiveDiffs: p.V,
			})
		}
	}
	return r
}

// Stats aggregates the protocol counters across all processors.
type Stats struct {
	Messages          int64
	DataBytes         int64
	ReadFaults        int64
	WriteFaults       int64
	PageFetches       int64
	OwnershipRequests int64
	OwnershipGrants   int64
	OwnershipRefusals int64
	Forwards          int64
	TwinsCreated      int64
	DiffsCreated      int64
	DiffsApplied      int64
	TwinBytes         int64 // cumulative bytes allocated for twins
	DiffBytes         int64 // cumulative bytes allocated for diffs
	MaxLiveTwinDiff   int64 // high-water mark of the twin+diff pools
	LockAcquires      int64
	Barriers          int64
	SWtoMW            int64 // page-mode transitions (adaptive protocols)
	MWtoSW            int64
	PolicySwitches    int64 // per-page protocol switches (Adaptive meta-protocol)
	SwitchToSW        int64 // pages switched to the single-writer (WFS) protocol
	SwitchToMW        int64 // pages switched to the multiple-writer protocol
	SwitchToHLRC      int64 // pages switched to home-based LRC
	GCRuns            int64
	HomeFlushes       int64 // HLRC flush messages sent to remote homes
	HomeFlushBytes    int64 // payload bytes of those flushes
	HomeLocalDiffs    int64 // diffs retired locally (writer was the home)
	HomeBinds         int64 // first-touch home agreement requests
	BatchedFetches    int64 // batched span-fetch rounds (one Multicall each)
	PrefetchPages     int64 // pages made valid through the batched span path
	SerialFallbacks   int64 // planned pages that fell back to the serial path
	OneSidedReads     int64 // page/span fetches served from a peer's region
	OneSidedFallbacks int64 // region probes that fell back to the handler path
	BatchedOwnReqs    int64 // ownership requests that rode a grouped grant batch
	OmittedWrites     int64 // never-shipped diffs emptied by the omittable-write pass
	OmittedBytes      int64 // payload bytes those diffs no longer carry
	Checkpoints       int64 // barrier checkpoints committed (BarrierCkpt)
	Recoveries        int64 // checkpoint recoveries completed (RecoverSync)

	// Wire-efficiency counters, populated only by transports that report
	// real framing costs (the TCP runtime; zero under the simulator).
	// DataBytes above charges the protocol model's Msg.Size()+HeaderBytes
	// per message; these report what actually hit the sockets.
	WireFrames   int64 // data-plane frames sent by the hosted nodes
	WireBytes    int64 // real bytes (frame header + body) on the wire
	WireEncodeNS int64 // cumulative frame-encode time, nanoseconds

	// Per-lane wire accounting, indexed by lane (0 control, 1 bulk, last
	// region when one-sided reads are on). Nil under the simulator or a
	// single-lane mesh where the split is not meaningful.
	LaneBytes      []int64 // bytes sent per lane by the hosted nodes
	LaneQueueDepth []int64 // current send-queue depth per lane (frames)
	LaneQueueHWM   []int64 // send-queue high-water mark per lane (frames)
}

// Sharing summarizes the measured application characteristics (the
// paper's Table 2): write-write false sharing and write granularity.
type Sharing struct {
	SharedPages  int
	WrittenPages int
	FSPages      int
	FSPercent    float64
	AvgDiffBytes float64
	MaxDiffBytes int
}

// TimelinePoint is one sample of the live-diff-count timeline (Figure 3).
type TimelinePoint struct {
	T         time.Duration
	LiveDiffs int64
}

// Report is the result of one cluster execution. Under SimTransport,
// Elapsed is deterministic virtual time; under a real transport it is
// wall-clock time. A Partial report comes from one endpoint of a
// multi-process run and covers that process's nodes only.
type Report struct {
	Protocol     Protocol
	Home         HomePolicy
	Procs        int
	Transport    Transport
	Partial      bool
	Elapsed      time.Duration
	Stats        Stats
	Sharing      Sharing
	DiffTimeline []TimelinePoint
}

// MemoryMB returns the cumulative twin+diff memory in megabytes (the
// paper's Table 3 metric).
func (r *Report) MemoryMB() float64 {
	return float64(r.Stats.TwinBytes+r.Stats.DiffBytes) / (1 << 20)
}

// DataMB returns the total data moved in megabytes (Table 4).
func (r *Report) DataMB() float64 { return float64(r.Stats.DataBytes) / (1 << 20) }
