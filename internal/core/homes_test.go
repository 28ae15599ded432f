package core

import (
	"testing"

	"adsm/internal/mem"
	"adsm/internal/vc"
)

func homeTestParams(procs int, proto Protocol, home Home) Params {
	p := testParams(procs, proto)
	p.Home = home
	return p
}

func TestHomeRegistryParse(t *testing.T) {
	cases := map[string]Home{
		"static":            HomeStatic,
		"first-touch":       HomeFirstTouch,
		"FIRSTTOUCH":        HomeFirstTouch,
		"ft":                HomeFirstTouch,
		"round-robin-alloc": HomeRRAlloc,
		"rr-alloc":          HomeRRAlloc,
		"rr":                HomeRRAlloc,
		"block":             HomeBlock,
		"Blocked":           HomeBlock,
	}
	for name, want := range cases {
		got, err := ParseHome(name)
		if err != nil || got != want {
			t.Errorf("ParseHome(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseHome("bogus"); err == nil {
		t.Errorf("ParseHome(bogus) must fail")
	}
	if _, err := RegisterHome(HomeSpec{Name: "static", New: func() HomeAssigner { return staticHomes{} }}); err == nil {
		t.Errorf("re-registering static must fail")
	}
	if _, err := RegisterHome(HomeSpec{Name: "no-factory"}); err == nil {
		t.Errorf("registering without a factory must fail")
	}
	if len(HomeNames()) < 4 {
		t.Errorf("expected at least 4 home policies, got %v", HomeNames())
	}
}

func TestStaticHomesLayout(t *testing.T) {
	c := New(homeTestParams(4, MW, HomeStatic))
	c.AllocPageAligned(8 * mem.PageSize)
	c.homes.Prepare(c)
	for pg := 0; pg < 8; pg++ {
		if got := c.homeOf(pg); got != pg%4 {
			t.Errorf("static home of page %d = %d, want %d", pg, got, pg%4)
		}
	}
}

func TestRRAllocHomesStriping(t *testing.T) {
	c := New(homeTestParams(4, MW, HomeRRAlloc))
	c.AllocPageAligned(3 * mem.PageSize) // pages 0..2
	c.AllocPageAligned(6 * mem.PageSize) // pages 3..8
	c.homes.Prepare(c)
	// Each allocation stripes from node 0: the j-th page of the call lives
	// at node j % procs, regardless of the segment offset.
	want := map[int]int{0: 0, 1: 1, 2: 2, 3: 0, 4: 1, 5: 2, 6: 3, 7: 0, 8: 1}
	for pg, home := range want {
		if got := c.homeOf(pg); got != home {
			t.Errorf("rr-alloc home of page %d = %d, want %d", pg, got, home)
		}
	}
	// Pages beyond the allocations fall back to the static layout.
	if got := c.homeOf(10); got != 10%4 {
		t.Errorf("unallocated page 10 home = %d, want %d", got, 10%4)
	}
}

func TestBlockHomesBands(t *testing.T) {
	c := New(homeTestParams(4, MW, HomeBlock))
	c.AllocPageAligned(8 * mem.PageSize)
	c.homes.Prepare(c)
	want := []int{0, 0, 1, 1, 2, 2, 3, 3}
	for pg, home := range want {
		if got := c.homeOf(pg); got != home {
			t.Errorf("block home of page %d = %d, want %d", pg, got, home)
		}
	}
	// Uneven split: 7 used pages over 4 procs -> bands of 2,2,2,1.
	c2 := New(homeTestParams(4, MW, HomeBlock))
	c2.AllocPageAligned(7 * mem.PageSize)
	c2.homes.Prepare(c2)
	want2 := []int{0, 0, 1, 1, 2, 2, 3}
	for pg, home := range want2 {
		if got := c2.homeOf(pg); got != home {
			t.Errorf("block(7) home of page %d = %d, want %d", pg, got, home)
		}
	}
}

// TestFirstTouchConcurrentAgreement pins the agreement protocol: when two
// nodes fault the same page with no synchronization between them, the
// directory serializes the binding requests and both nodes converge on
// the same home, which then serves all fetches for the page.
func TestFirstTouchConcurrentAgreement(t *testing.T) {
	const procs = 4
	c := New(homeTestParams(procs, hlrcProto, HomeFirstTouch))
	base := c.AllocPageAligned(8 * mem.PageSize)
	pageAt := func(pg int) int { return base/mem.PageSize + pg }
	mustRun(t, c, func(n *Node) {
		// Nodes 1 and 2 race to first-touch page 1.
		if n.ID() == 1 || n.ID() == 2 {
			_ = n.ReadU64(base + 1*mem.PageSize)
		}
		// Every node first-touches "its own" page (4 + id).
		n.WriteU64(base+(4+n.ID())*mem.PageSize, uint64(100+n.ID()))
		n.Barrier()
		// Everyone reads everything: the agreed homes must serve coherent
		// copies.
		for p := 0; p < procs; p++ {
			if got := n.ReadU64(base + (4+p)*mem.PageSize); got != uint64(100+p) {
				t.Errorf("node %d reads page of proc %d = %d, want %d", n.ID(), p, got, 100+p)
			}
		}
		n.Barrier()
	})

	ft := c.homes.(*firstTouchHomes)
	// The raced page is bound to one of the two racers, and every node that
	// learned a binding agrees with the directory.
	raced := pageAt(1)
	if h := ft.dir[raced]; h != 1 && h != 2 {
		t.Errorf("raced page bound to %d, want one of the racers (1 or 2)", h)
	}
	for pg := range ft.dir {
		for p := 0; p < procs; p++ {
			if cached := ft.cache[p][pg]; cached >= 0 && cached != ft.dir[pg] {
				t.Errorf("node %d cached home %d for page %d, directory says %d",
					p, cached, pg, ft.dir[pg])
			}
		}
	}
	// Each node's private page is homed at its first (and only) toucher.
	for p := 0; p < procs; p++ {
		if got := ft.dir[pageAt(4+p)]; got != p {
			t.Errorf("page first-touched by node %d homed at %d", p, got)
		}
	}
}

// TestHLRCHomePoliciesCoherent runs the false-sharing flush workload (the
// hardest HLRC pattern: concurrent writers of one page merging at the
// home) under every registered home policy.
func TestHLRCHomePoliciesCoherent(t *testing.T) {
	for _, home := range RegisteredHomes() {
		t.Run(home.String(), func(t *testing.T) {
			const procs = 4
			c := New(homeTestParams(procs, hlrcProto, home))
			base := c.AllocPageAligned(mem.PageSize)
			mustRun(t, c, func(n *Node) {
				for r := 1; r <= 5; r++ {
					for s := 0; s < 8; s++ {
						slot := s*procs + n.ID()
						n.WriteU64(base+8*slot, uint64(r*1000+n.ID()*10+s))
					}
					n.Barrier()
					for p := 0; p < procs; p++ {
						for s := 0; s < 8; s++ {
							slot := s*procs + p
							if got, want := n.ReadU64(base+8*slot), uint64(r*1000+p*10+s); got != want {
								t.Fatalf("round %d: node %d slot %d = %d, want %d", r, n.ID(), slot, got, want)
							}
						}
					}
					n.Barrier()
				}
			})
			// Diffs never accumulate regardless of where the homes are.
			for _, n := range c.nodes {
				if n.liveDiffs != 0 {
					t.Errorf("node %d still holds %d live diffs", n.id, n.liveDiffs)
				}
			}
		})
	}
}

// TestSWHomePoliciesRoute runs the pure single-writer protocol (which
// uses homes only to route ownership requests) under every home policy.
func TestSWHomePoliciesRoute(t *testing.T) {
	for _, home := range RegisteredHomes() {
		t.Run(home.String(), func(t *testing.T) {
			const procs, rounds = 4, 8
			c := New(homeTestParams(procs, SW, home))
			ctr := c.Alloc(8)
			mustRun(t, c, func(n *Node) {
				for r := 0; r < rounds; r++ {
					n.Acquire(0)
					n.WriteU64(ctr, n.ReadU64(ctr)+1)
					n.Release(0)
				}
				n.Barrier()
				if got := n.ReadU64(ctr); got != procs*rounds {
					t.Errorf("node %d: counter = %d, want %d", n.ID(), got, procs*rounds)
				}
			})
		})
	}
}

// TestDetectorNoteWriteSnapshotsVC: the detector must snapshot each write
// notice's vector clock. Holding a reference would let a later in-place
// mutation of a vector that aliases it retroactively flip the
// concurrency check (the write-write false-sharing metric).
func TestDetectorNoteWriteSnapshotsVC(t *testing.T) {
	d := newDetector(2, 1)
	v := vc.VC{1, 0}
	d.noteWrite(&WriteNotice{Page: 0, Int: &Interval{Proc: 0, TS: 1, VC: v}})
	// Mutate the vector in place after the fact (the hazard: vc.VC is a
	// slice, and Join/Tick mutate in place).
	v[1] = 7
	// Proc 1's write at <1,1> is ordered after the original <1,0>, so no
	// false sharing — but it IS concurrent with the corrupted <1,7>.
	d.noteWrite(&WriteNotice{Page: 0, Int: &Interval{Proc: 1, TS: 1, VC: vc.VC{1, 1}}})
	if d.pages[0].fs {
		t.Errorf("in-place mutation of an interval VC after noteWrite corrupted the concurrency check")
	}
	ch := d.Characteristics(1)
	if ch.FSPages != 0 {
		t.Errorf("FSPages = %d, want 0", ch.FSPages)
	}
}
