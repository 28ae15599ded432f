package core

import (
	"bytes"
	"runtime"
	"testing"

	"adsm/internal/mem"
	"adsm/internal/transport"
	"adsm/internal/transport/tcp"
)

// TestReservationCommitsNoMemory: page state tracks the allocated segment,
// not the MaxSharedBytes reservation. A default 64 MB cluster with one
// allocated page must allocate far less than one page per reserved page.
func TestReservationCommitsNoMemory(t *testing.T) {
	p := DefaultParams(8)
	if p.MaxSharedBytes < 64<<20 {
		t.Fatalf("default MaxSharedBytes = %d, want the 64 MB reservation", p.MaxSharedBytes)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := New(p)
	c.Alloc(mem.PageSize)
	mustRun(t, c, func(n *Node) {})
	runtime.ReadMemStats(&after)
	if delta := after.TotalAlloc - before.TotalAlloc; delta > 2<<20 {
		t.Errorf("one-page cluster allocated %d bytes of heap, want < 2 MB", delta)
	}
	if got := len(c.Node(0).pages); got != 1 {
		t.Errorf("node 0 holds state for %d pages, want 1", got)
	}
}

// writeReadRounds runs rounds of "node 0 rewrites page 0, node 1 reads it"
// under MW. Node 1 holds a copy from the start, so each read fetches node
// 0's diff, which retires its twin, and node 0's next write fault twins
// the page again. after runs on node 0 at the end of every round, once
// node 1 has read.
func writeReadRounds(t *testing.T, p Params, rounds int, after func(n *Node, round int)) *Cluster {
	t.Helper()
	c := New(p)
	base := c.AllocPageAligned(mem.PageSize)
	readAll := func(n *Node) {
		for w := 0; w < 1024; w++ {
			n.ReadU32(base + w*4)
		}
	}
	mustRun(t, c, func(n *Node) {
		if n.ID() == 1 {
			readAll(n)
		}
		n.Barrier()
		for r := 1; r <= rounds; r++ {
			if n.ID() == 0 {
				// The same words every round with new values: a diff that
				// aliased the page or its twin would see later rounds.
				for w := 0; w < 16; w++ {
					n.WriteU32(base+w*5*4, uint32(r<<8|w))
				}
			}
			n.Barrier()
			if n.ID() == 1 {
				readAll(n)
			}
			n.Barrier()
			if n.ID() == 0 && after != nil {
				after(n, r)
			}
		}
	})
	return c
}

// TestTwinReuse: repeated write/release cycles on one page keep counting
// twins but recycle the first one's memory instead of allocating anew.
func TestTwinReuse(t *testing.T) {
	const rounds = 6
	var first *byte
	c := writeReadRounds(t, testParams(2, MW), rounds, func(n *Node, r int) {
		ps := n.pages[0]
		if ps.twin != nil || len(n.twinFree) != 1 {
			t.Errorf("round %d: twin live = %v, %d free twins; want the one twin recycled after the reader fetched the diff",
				r, ps.twin != nil, len(n.twinFree))
			return
		}
		if first == nil {
			first = &n.twinFree[0][0]
		} else if &n.twinFree[0][0] != first {
			t.Errorf("round %d: a new twin was allocated instead of reusing the first", r)
		}
	})
	if got := c.Node(0).Stats.TwinsCreated; got != rounds {
		t.Errorf("TwinsCreated = %d, want %d", got, rounds)
	}
}

// TestRecycledTwinDiffsStable: diffs are built from a twin that is later
// reused and overwritten by the next round's write fault; they must not
// alias it. Each round snapshots the diffs node 0 made so far, and every
// later round re-checks them, on the simulator and the tcp mesh.
func TestRecycledTwinDiffsStable(t *testing.T) {
	tcpParams := testParams(2, MW)
	tcpParams.Runtime = func(p Params) transport.Runtime {
		rt, err := tcp.New(tcp.Options{Procs: p.Procs, OneSided: true})
		if err != nil {
			t.Fatalf("tcp mesh: %v", err)
		}
		return rt
	}
	for name, p := range map[string]Params{"sim": testParams(2, MW), "tcp": tcpParams} {
		t.Run(name, func(t *testing.T) {
			seen := map[*mem.Diff][]mem.Run{} // each diff's runs, deep-copied when first seen
			check := func(n *Node, r int) {
				for d, runs := range seen {
					if !sameRuns(d.Runs, runs) {
						t.Errorf("round %d: a diff changed after its twin was recycled", r)
					}
				}
				for _, d := range n.diffCache {
					if _, ok := seen[d]; !ok {
						var runs []mem.Run
						for _, run := range d.Runs {
							runs = append(runs, mem.Run{Off: run.Off, Data: append([]byte(nil), run.Data...)})
						}
						seen[d] = runs
					}
				}
			}
			const rounds = 8
			c := writeReadRounds(t, p, rounds, check)
			if len(seen) != rounds {
				t.Errorf("checked %d diffs, want one per round (%d)", len(seen), rounds)
			}
			if got := c.Node(0).Stats.TwinsCreated; got != rounds {
				t.Errorf("TwinsCreated = %d, want %d", got, rounds)
			}
		})
	}
}

func sameRuns(a, b []mem.Run) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Off != b[i].Off || !bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}
