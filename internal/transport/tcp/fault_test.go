package tcp

import (
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"adsm/internal/transport"
)

// treg is a region-classed test message: it rides the region lane.
type treg struct{ N int }

func (m treg) Size() int { return transport.UvarintLen(uint64(m.N)) }

func init() {
	transport.MustRegisterCodec(transport.Codec{Name: "tcptest.treg", Msg: treg{},
		Class: transport.ClassRegion,
		AppendWire: func(m transport.Msg, b []byte, payloads [][]byte) ([]byte, [][]byte) {
			return transport.AppendUvarint(b, uint64(m.(treg).N)), payloads
		},
		DecodeWire: func(body []byte) (transport.Msg, error) {
			r := transport.NewWireReader(body)
			m := treg{N: r.Int()}
			if err := r.Close(); err != nil {
				return nil, err
			}
			return m, nil
		}})
}

// dropFrom is a FaultInjector silencing every frame a set of nodes sends —
// the wire view of a wedged (SIGSTOPed) process whose sockets stay open.
type dropFrom struct{ from int32 }

func (d *dropFrom) DropFrame(from, to, lane int) bool {
	return int32(from) == atomic.LoadInt32(&d.from)
}
func (d *dropFrom) DelayFrame(from, to, lane int) time.Duration { return 0 }

// TestSeverMidMulticallAllLanes is the kill hammer: four nodes saturate
// every lane class — control (tmsg), bulk (tbulk), region (one-sided
// reads) — while one node's connections are severed mid-flight. The run
// must fail with the typed peer-loss error, never deadlock. Run with
// -race this also shakes the teardown paths.
func TestSeverMidMulticallAllLanes(t *testing.T) {
	const procs, victim = 4, 2
	rt, err := New(Options{Procs: procs, OneSided: true})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < procs; id++ {
		id := id
		rt.Register(id, func(c transport.Call, from int, m transport.Msg) {
			switch r := m.(type) {
			case tmsg:
				c.Reply(tmsg{N: r.N + 1})
			case tbulk:
				c.Reply(tbulk{N: r.N, Data: r.Data})
			default:
				c.Reply(m)
			}
		})
		rt.RegisterRegion(id, func(from int, req transport.Msg) (transport.Msg, bool) {
			return treg{N: req.(treg).N * 2}, true
		})
	}
	var rounds atomic.Int64
	for id := 0; id < procs; id++ {
		id := id
		rt.Spawn(id, "n", func(p transport.Proc) {
			payload := make([]byte, 2048)
			for i := 0; ; i++ {
				var targets []transport.Target
				for peer := 0; peer < procs; peer++ {
					if peer == id {
						continue
					}
					targets = append(targets,
						transport.Target{To: peer, M: tmsg{N: i}},
						transport.Target{To: peer, M: tbulk{N: i, Data: payload}})
				}
				rt.Multicall(p, targets)
				rt.OneSidedRead(p, (id+1)%procs, treg{N: i})
				if id == 0 && rounds.Add(1) == 30 {
					// Mid-hammer, with calls in flight on every lane of
					// every pair: kill the victim.
					rt.Sever(victim)
				}
			}
		})
	}
	errc := make(chan error, 1)
	go func() { errc <- rt.Run() }()
	select {
	case err := <-errc:
		if !errors.Is(err, transport.ErrPeerLost{}) {
			t.Fatalf("Run() = %v, want ErrPeerLost", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("mesh deadlocked after sever")
	}
}

// TestLeaseExpiryDetectsWedgedPeer wedges a peer at the wire (every frame
// it sends is dropped, sockets stay open) and requires the lease monitor
// to declare it dead with the typed error — connection errors alone would
// never fire here.
func TestLeaseExpiryDetectsWedgedPeer(t *testing.T) {
	inj := &dropFrom{from: -1}
	rt, err := New(Options{Procs: 2, LeaseTerm: 150 * time.Millisecond, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 2; id++ {
		rt.Register(id, func(c transport.Call, from int, m transport.Msg) { c.Reply(m) })
	}
	for id := 0; id < 2; id++ {
		rt.Spawn(id, "n", func(p transport.Proc) {
			time.Sleep(time.Second)
		})
	}
	// Let the mesh settle, then silence node 1 entirely.
	time.AfterFunc(50*time.Millisecond, func() { atomic.StoreInt32(&inj.from, 1) })
	errc := make(chan error, 1)
	go func() { errc <- rt.Run() }()
	select {
	case err := <-errc:
		if !errors.Is(err, transport.ErrLeaseExpired{}) {
			t.Fatalf("Run() = %v, want ErrLeaseExpired", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("lease monitor never fired")
	}
}

// TestLeasesQuietWhenHealthy pins that heartbeats alone never kill a
// healthy mesh: a short-lease run where everybody is idle (bodies sleep
// well past several lease terms) must still end cleanly.
func TestLeasesQuietWhenHealthy(t *testing.T) {
	rt, err := New(Options{Procs: 3, LeaseTerm: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 3; id++ {
		rt.Register(id, func(c transport.Call, from int, m transport.Msg) { c.Reply(m) })
		rt.Spawn(id, "n", func(p transport.Proc) { time.Sleep(600 * time.Millisecond) })
	}
	if err := rt.Run(); err != nil {
		t.Fatalf("healthy short-lease mesh failed: %v", err)
	}
}

// TestHandshakeLeaseMismatchRefused: endpoints disagreeing on the lease
// term must refuse to mesh (one timing out a healthy peer is a split-brain
// recipe).
func TestHandshakeLeaseMismatchRefused(t *testing.T) {
	addrs := reserveAddrs(t, 2)
	res := make(chan error, 2)
	mk := func(local int, lease time.Duration) {
		rt, err := New(Options{Procs: 2, Local: []int{local}, Addrs: addrs,
			LeaseTerm: lease, DialTimeout: 5 * time.Second})
		if err == nil {
			rt.Close()
		}
		res <- err
	}
	go mk(0, 100*time.Millisecond)
	go mk(1, 200*time.Millisecond)
	err1, err2 := <-res, <-res
	if err1 == nil && err2 == nil {
		t.Fatal("lease-term mismatch was accepted by both endpoints")
	}
	for _, err := range []error{err1, err2} {
		if err != nil && !strings.Contains(err.Error(), "lease") {
			t.Fatalf("mismatch error does not name the lease: %v", err)
		}
	}
}

// TestHandshakeEpochMismatchRefused: a stale process from a previous
// incarnation (older epoch) must be refused, while the -recover wildcard
// (-1) adopts the survivors' epoch.
func TestHandshakeEpochMismatchRefused(t *testing.T) {
	addrs := reserveAddrs(t, 2)
	res := make(chan error, 2)
	mk := func(local int, epoch int64) {
		rt, err := New(Options{Procs: 2, Local: []int{local}, Addrs: addrs,
			Epoch: epoch, DialTimeout: 5 * time.Second})
		if err == nil {
			rt.Close()
		}
		res <- err
	}
	go mk(0, 3)
	go mk(1, 2) // stale incarnation
	err1, err2 := <-res, <-res
	if err1 == nil && err2 == nil {
		t.Fatal("epoch mismatch was accepted by both endpoints")
	}
	for _, err := range []error{err1, err2} {
		if err != nil && !strings.Contains(err.Error(), "epoch") {
			t.Fatalf("mismatch error does not name the epoch: %v", err)
		}
	}
}

// TestEpochWildcardAdopts: the recovering endpoint joins with epoch -1
// and must adopt the survivor's epoch.
func TestEpochWildcardAdopts(t *testing.T) {
	addrs := reserveAddrs(t, 2)
	type out struct {
		rt  *Runtime
		err error
	}
	res := make(chan out, 1)
	go func() {
		rt, err := New(Options{Procs: 2, Local: []int{0}, Addrs: addrs,
			Epoch: 7, DialTimeout: 5 * time.Second})
		res <- out{rt, err}
	}()
	rec, err := New(Options{Procs: 2, Local: []int{1}, Addrs: addrs,
		Epoch: -1, DialTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	surv := <-res
	if surv.err != nil {
		t.Fatal(surv.err)
	}
	defer surv.rt.Close()
	if got := rec.Epoch(); got != 7 {
		t.Fatalf("wildcard endpoint adopted epoch %d, want 7", got)
	}
}

// TestSilentConnecterCannotHangMesh: a connection that completes TCP but
// never sends a hello must not wedge mesh formation — the handshake read
// deadline drops it while the real peers mesh normally.
func TestSilentConnecterCannotHangMesh(t *testing.T) {
	addrs := reserveAddrs(t, 2)
	stop := make(chan struct{})
	defer close(stop)
	// Hammer node 0's listen address with silent connections the whole
	// time the mesh forms.
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			c, err := net.DialTimeout("tcp", addrs[0], time.Second)
			if err != nil {
				time.Sleep(5 * time.Millisecond)
				continue
			}
			defer c.Close()
			time.Sleep(20 * time.Millisecond)
		}
	}()
	rt, err := New(Options{Procs: 2, Addrs: addrs, DialTimeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("mesh formation with silent connecters: %v", err)
	}
	for id := 0; id < 2; id++ {
		rt.Register(id, func(c transport.Call, from int, m transport.Msg) { c.Reply(m) })
	}
	var ok atomic.Bool
	rt.Spawn(0, "n0", func(p transport.Proc) {
		if r := rt.Call(p, 1, tmsg{N: 1}).(tmsg); r.N == 1 {
			ok.Store(true)
		}
	})
	rt.Spawn(1, "n1", func(p transport.Proc) {})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok.Load() {
		t.Fatal("call through the mesh did not complete")
	}
}
