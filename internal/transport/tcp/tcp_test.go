package tcp

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"adsm/internal/transport"
)

// tmsg is a registered test message: an int and a string, both in the
// metadata section.
type tmsg struct {
	N int
	S string
}

func (m tmsg) Size() int {
	return transport.UvarintLen(uint64(m.N)) + transport.UvarintLen(uint64(len(m.S))) + len(m.S)
}

func tmsgAppendWire(m transport.Msg, b []byte, payloads [][]byte) ([]byte, [][]byte) {
	r := m.(tmsg)
	b = transport.AppendUvarint(b, uint64(r.N))
	b = transport.AppendUvarint(b, uint64(len(r.S)))
	return append(b, r.S...), payloads
}

func tmsgDecodeWire(body []byte) (transport.Msg, error) {
	r := transport.NewWireReader(body)
	m := tmsg{N: r.Int()}
	m.S = string(r.Bytes(r.Count(1)))
	if err := r.Close(); err != nil {
		return nil, err
	}
	return m, nil
}

// tbulk is a bulk-classed test message: it rides the bulk lane on a
// multiplexed mesh, exactly like a page or diff payload. It shares bmsg's
// encoding (frame_test.go).
type tbulk struct {
	N    int
	Data []byte
}

func (m tbulk) Size() int { return bmsg(m).Size() }

func init() {
	transport.MustRegisterCodec(transport.Codec{Name: "tcptest.tmsg", Msg: tmsg{},
		AppendWire: tmsgAppendWire, DecodeWire: tmsgDecodeWire})
	transport.MustRegisterCodec(transport.Codec{Name: "tcptest.tbulk", Msg: tbulk{},
		Class: transport.ClassBulk,
		AppendWire: func(m transport.Msg, b []byte, payloads [][]byte) ([]byte, [][]byte) {
			return bmsgAppendWire(bmsg(m.(tbulk)), b, payloads)
		},
		DecodeWire: func(body []byte) (transport.Msg, error) {
			m, err := bmsgDecodeWire(body)
			if err != nil {
				return nil, err
			}
			return tbulk(m.(bmsg)), nil
		}})
}

// mesh builds an in-process runtime hosting all n nodes.
func mesh(t *testing.T, n int) *Runtime {
	t.Helper()
	rt, err := New(Options{Procs: n})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestCallReplyForward exercises the basic call surface: an echo handler,
// a positional multicall, and a forwarded call whose reply goes straight
// to the origin.
func TestCallReplyForward(t *testing.T) {
	rt := mesh(t, 3)
	for id := 0; id < 3; id++ {
		id := id
		rt.Register(id, func(c transport.Call, from int, m transport.Msg) {
			r := m.(tmsg)
			if r.S == "fwd" && id == 1 {
				c.Forward(2, tmsg{N: r.N, S: "fwded"})
				return
			}
			c.Reply(tmsg{N: r.N * 10, S: r.S + "!"})
		})
	}
	var got atomic.Int64
	rt.Spawn(0, "n0", func(p transport.Proc) {
		r := rt.Call(p, 1, tmsg{N: 7, S: "hi"}).(tmsg)
		if r.N != 70 || r.S != "hi!" {
			t.Errorf("call: got %+v", r)
		}
		rs := rt.Multicall(p, []transport.Target{
			{To: 1, M: tmsg{N: 1, S: "a"}},
			{To: 2, M: tmsg{N: 2, S: "b"}},
		})
		if rs[0].(tmsg).N != 10 || rs[1].(tmsg).N != 20 {
			t.Errorf("multicall: got %+v", rs)
		}
		f := rt.Call(p, 1, tmsg{N: 5, S: "fwd"}).(tmsg)
		if f.N != 50 || f.S != "fwded!" {
			t.Errorf("forward: got %+v", f)
		}
		got.Store(int64(f.N))
	})
	rt.Spawn(1, "n1", func(p transport.Proc) {})
	rt.Spawn(2, "n2", func(p transport.Proc) {})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got.Load() != 50 {
		t.Fatalf("body did not complete")
	}
	if rt.TotalMsgs() == 0 || rt.TotalBytes() == 0 {
		t.Fatalf("traffic counters empty: %d msgs, %d bytes", rt.TotalMsgs(), rt.TotalBytes())
	}
}

// TestCallUnregisteredNodeFailsLoudly: a call to a node with no handler
// must surface as a Run error naming the failure, not a deadlock.
func TestCallUnregisteredNodeFailsLoudly(t *testing.T) {
	rt := mesh(t, 2)
	rt.Register(0, func(c transport.Call, from int, m transport.Msg) { c.Reply(m) })
	// Node 1 deliberately registers no handler.
	rt.Spawn(0, "n0", func(p transport.Proc) {
		rt.Call(p, 1, tmsg{N: 1})
	})
	rt.Spawn(1, "n1", func(p transport.Proc) {})
	err := rt.Run()
	if err == nil {
		t.Fatal("expected an error for a call to an unregistered node")
	}
	if !strings.Contains(err.Error(), "no handler registered") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestPeerDisconnectMidMulticall: a peer process that dies while a
// multicall awaits its reply must fail the caller with an error instead of
// deadlocking it.
func TestPeerDisconnectMidMulticall(t *testing.T) {
	addrs := reserveAddrs(t, 3)
	// New blocks until the whole mesh is up, so both endpoints must come
	// up concurrently (exactly like separate OS processes would).
	callerReady := make(chan *Runtime, 1)
	go func() {
		caller, err := New(Options{Procs: 3, Local: []int{0}, Addrs: addrs, DialTimeout: 10 * time.Second})
		if err != nil {
			t.Error(err)
			caller = nil
		}
		callerReady <- caller
	}()
	peers, err := New(Options{Procs: 3, Local: []int{1, 2}, Addrs: addrs, DialTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	caller := <-callerReady
	if caller == nil {
		t.Fatal("caller endpoint failed to come up")
	}
	defer caller.Close()

	// Node 2 answers; node 1 sits on the call forever.
	peers.Register(1, func(c transport.Call, from int, m transport.Msg) {})
	peers.Register(2, func(c transport.Call, from int, m transport.Msg) { c.Reply(m) })
	peers.Spawn(1, "n1", func(p transport.Proc) { time.Sleep(200 * time.Millisecond) })
	peers.Spawn(2, "n2", func(p transport.Proc) { time.Sleep(200 * time.Millisecond) })
	go peers.Run()

	caller.Register(0, func(c transport.Call, from int, m transport.Msg) { c.Reply(m) })
	caller.Spawn(0, "n0", func(p transport.Proc) {
		// Kill the peer endpoint once the multicall is surely in flight.
		time.AfterFunc(100*time.Millisecond, peers.Close)
		caller.Multicall(p, []transport.Target{
			{To: 1, M: tmsg{N: 1}},
			{To: 2, M: tmsg{N: 2}},
		})
	})
	errc := make(chan error, 1)
	go func() { errc <- caller.Run() }()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("expected an error after the peer disconnected mid-multicall")
		}
		if !strings.Contains(err.Error(), "lost connection") {
			t.Fatalf("unexpected error: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("caller deadlocked after peer disconnect")
	}
}

// laneOrderRun sends nbulk slow bulk calls followed by one control ping
// (all in one overlapped Multicall) and reports how many bulk calls the
// receiver had finished when the ping's handler ran. Sender and receiver
// are separate endpoints — separate state locks — so the receiver's slow
// handlers cannot stall the sender's enqueues, and each bulk handler burns
// real time while holding the receiver's state lock. On a single shared
// connection the ping — behind every bulk frame in the socket — can only
// run after all of them; on a multiplexed mesh it arrives on the control
// lane and overtakes the queued bulk dispatches.
func laneOrderRun(t *testing.T, lanes, nbulk int) int {
	t.Helper()
	addrs := reserveAddrs(t, 2)
	senderReady := make(chan *Runtime, 1)
	go func() {
		rt, err := New(Options{Procs: 2, Lanes: lanes, Local: []int{0}, Addrs: addrs,
			DialTimeout: 10 * time.Second})
		if err != nil {
			t.Error(err)
			rt = nil
		}
		senderReady <- rt
	}()
	recv, err := New(Options{Procs: 2, Lanes: lanes, Local: []int{1}, Addrs: addrs,
		DialTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	sender := <-senderReady
	if sender == nil {
		t.Fatal("sender endpoint failed to come up")
	}

	var handled atomic.Int64
	var atPing atomic.Int64
	recv.Register(1, func(c transport.Call, from int, m transport.Msg) {
		switch r := m.(type) {
		case tbulk:
			// The delay holds the state lock across the sleep, like a real
			// handler serving a large payload does (a sleep rather than a
			// busy-wait so the control readLoop gets CPU on small boxes).
			time.Sleep(2 * time.Millisecond)
			handled.Add(1)
			c.Reply(tbulk{N: r.N})
		case tmsg:
			atPing.Store(handled.Load())
			c.Reply(r)
		}
	})
	recv.Spawn(1, "n1", func(p transport.Proc) {})
	recvErr := make(chan error, 1)
	go func() { recvErr <- recv.Run() }()

	sender.Register(0, func(c transport.Call, from int, m transport.Msg) { c.Reply(m) })
	sender.Spawn(0, "n0", func(p transport.Proc) {
		targets := make([]transport.Target, 0, nbulk+1)
		for i := 0; i < nbulk; i++ {
			targets = append(targets, transport.Target{To: 1, M: tbulk{N: i, Data: make([]byte, 8192)}})
		}
		targets = append(targets, transport.Target{To: 1, M: tmsg{N: -1, S: "ping"}})
		sender.Multicall(p, targets)
	})
	if err := sender.Run(); err != nil {
		t.Fatal(err)
	}
	if err := <-recvErr; err != nil {
		t.Fatal(err)
	}
	return int(atPing.Load())
}

// TestControlLaneOvertakesBulk pins the lane ordering contract the barrier
// hot path depends on: a latency-critical control message (a barRelease,
// an ownership grant) enqueued after a burst of bulk payloads must not
// wait for the whole burst to drain. On the single-lane mesh the ping is
// FIFO behind every bulk frame (exactly nbulk handled first — that
// direction is deterministic); with the control lane present it must
// overtake most of the burst.
func TestControlLaneOvertakesBulk(t *testing.T) {
	const nbulk = 20
	single := laneOrderRun(t, 1, nbulk)
	if single != nbulk {
		t.Errorf("single lane: ping handled after %d/%d bulk calls, want strict FIFO (%d)",
			single, nbulk, nbulk)
	}
	multi := laneOrderRun(t, 2, nbulk)
	if multi > nbulk/2 {
		t.Errorf("control lane: ping handled after %d/%d bulk calls, expected it to overtake the burst",
			multi, nbulk)
	}
	t.Logf("ping overtook at %d/%d bulk handled (single lane: %d/%d)", multi, nbulk, single, nbulk)
}

// reserveAddrs picks n free loopback ports.
func reserveAddrs(t *testing.T, n int) []string {
	t.Helper()
	rts, err := New(Options{Procs: n})
	if err != nil {
		t.Fatal(err)
	}
	addrs := rts.Addrs()
	rts.Close()
	// Rebinding the just-released ports is reliable on loopback.
	return addrs
}
