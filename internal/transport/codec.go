package transport

import (
	"fmt"
	"hash/fnv"
	"io"
	"reflect"
	"sort"
	"sync"
)

// The message codec registry, keyed like the protocol registry: every
// protocol message type that may cross a real wire registers a Codec
// binding it to a stable wire name and its binary encoding (built from the
// primitives in wire.go). The simulator passes messages by reference and
// never encodes them, but charges each one its Msg.Size(), which every
// codec keeps equal to its encoded length; real transports
// (internal/transport/tcp) refuse to carry an unregistered message.

// Class partitions messages across a multiplexing transport's per-pair
// lanes. Control is the default: small latency-critical frames (barriers,
// locks, ownership, requests). Bulk marks large payload-bearing replies
// that would head-of-line-block control traffic on a shared connection.
// Region marks one-sided region-read traffic, which travels on its own
// dedicated connection served off the protocol handler loop entirely.
type Class uint8

const (
	ClassControl Class = iota
	ClassBulk
	ClassRegion
)

// Codec gives one protocol message type its wire encoding.
type Codec struct {
	// Name is the stable wire name. Wire ids are assigned in Name order,
	// so renaming a codec renumbers the wire.
	Name string
	// Class assigns the message to a transport lane (default ClassControl).
	// Transports that do not multiplex ignore it.
	Class Class
	// Msg is a zero sample of the protocol message type; its dynamic type
	// keys the encode path.
	Msg Msg
	// AppendWire encodes the message. It appends the message's metadata to
	// b and the large []byte payloads (pages, diff run data) to payloads
	// in traversal order, returning both extended slices; the transport
	// sends meta then payloads as one vectored write, so payload bytes
	// never pass through an intermediate buffer (and appending to
	// caller-pooled slices keeps the hot path allocation-free). Payload
	// slices must stay immutable until the write completes (protocol
	// messages carry fresh copies, so this holds by construction).
	AppendWire func(m Msg, b []byte, payloads [][]byte) ([]byte, [][]byte)
	// DecodeWire reconstructs the message from one contiguous frame body
	// (metadata followed by payload bytes). Implementations slice payloads
	// out of body without copying — the decoded message owns (aliases) the
	// frame blob. Malformed input must return an error, never panic.
	DecodeWire func(body []byte) (Msg, error)
}

var (
	codecMu     sync.RWMutex
	codecByMsg  = map[reflect.Type]Codec{}
	codecByName = map[string]Codec{}
)

// RegisterCodec adds a message codec to the registry. It fails on an
// empty name, a missing sample or encoding hook, duplicate names or
// message types, and on any registration after the wire ids were frozen.
func RegisterCodec(c Codec) error {
	if c.Name == "" {
		return fmt.Errorf("transport: codec name must not be empty")
	}
	if c.Msg == nil {
		return fmt.Errorf("transport: codec %q has no message sample", c.Name)
	}
	if c.AppendWire == nil || c.DecodeWire == nil {
		return fmt.Errorf("transport: codec %q must set AppendWire and DecodeWire", c.Name)
	}
	codecMu.Lock()
	defer codecMu.Unlock()
	if wireFrozen {
		return fmt.Errorf("transport: codec %q registered after wire ids were frozen", c.Name)
	}
	if _, ok := codecByName[c.Name]; ok {
		return fmt.Errorf("transport: codec name %q already registered", c.Name)
	}
	mt := reflect.TypeOf(c.Msg)
	if _, ok := codecByMsg[mt]; ok {
		return fmt.Errorf("transport: message type %v already has a codec", mt)
	}
	codecByName[c.Name] = c
	codecByMsg[mt] = c
	return nil
}

// MustRegisterCodec is RegisterCodec, panicking on error (init-time use).
func MustRegisterCodec(c Codec) {
	if err := RegisterCodec(c); err != nil {
		panic(err)
	}
}

// CodecOf returns the codec for a message value.
func CodecOf(m Msg) (Codec, bool) {
	codecMu.RLock()
	defer codecMu.RUnlock()
	c, ok := codecByMsg[reflect.TypeOf(m)]
	return c, ok
}

// ClassOf reports the lane class of a message (ClassControl when the
// message has no codec — error replies and handshake frames are control
// traffic by definition).
func ClassOf(m Msg) Class {
	if m == nil {
		return ClassControl
	}
	c, ok := CodecOf(m)
	if !ok {
		return ClassControl
	}
	return c.Class
}

// Codecs lists every registered codec in map order; tests iterate it to
// pin wire invariants for all message types.
func Codecs() []Codec {
	codecMu.RLock()
	defer codecMu.RUnlock()
	out := make([]Codec, 0, len(codecByName))
	for _, c := range codecByName {
		out = append(out, c)
	}
	return out
}

// Wire ids. Frames carrying a message name its codec by a dense uint16 id
// instead of a string. Ids are assigned deterministically — codecs sorted
// by Name, numbered from 1 — and frozen at the first transport use, so every process linking the same message set
// agrees without negotiation. WireDigest folds the id assignment into one
// value that peers exchange in the mesh handshake: a mismatch (peers built
// from different message sets) refuses the connection instead of
// misdecoding frames.

var (
	wireFreezeOnce sync.Once
	wireFrozen     bool // guarded by codecMu; set inside the freeze
	wireByID       []Codec
	wireIDByMsg    map[reflect.Type]uint16
	wireDigest     uint64
)

func freezeWire() {
	wireFreezeOnce.Do(func() {
		codecMu.Lock()
		defer codecMu.Unlock()
		names := make([]string, 0, len(codecByName))
		for name := range codecByName {
			names = append(names, name)
		}
		sort.Strings(names)
		h := fnv.New64a()
		wireByID = make([]Codec, len(names))
		wireIDByMsg = make(map[reflect.Type]uint16, len(names))
		for i, name := range names {
			c := codecByName[name]
			wireByID[i] = c
			wireIDByMsg[reflect.TypeOf(c.Msg)] = uint16(i + 1)
			io.WriteString(h, name)
			h.Write([]byte{0})
		}
		wireDigest = h.Sum64()
		wireFrozen = true
	})
}

// WireIDOf returns the frozen wire id of m's codec, or false if m has no
// registered codec. The first call freezes the id assignment; registering
// further codecs afterwards is an error.
func WireIDOf(m Msg) (uint16, bool) {
	freezeWire()
	id, ok := wireIDByMsg[reflect.TypeOf(m)]
	return id, ok
}

// WireCodecByID resolves a frozen wire id back to its codec.
func WireCodecByID(id uint16) (Codec, bool) {
	freezeWire()
	if id < 1 || int(id) > len(wireByID) {
		return Codec{}, false
	}
	return wireByID[id-1], true
}

// WireDigest summarizes the frozen codec set; peers exchange it in
// the mesh handshake and refuse to connect on a mismatch.
func WireDigest() uint64 {
	freezeWire()
	return wireDigest
}

// WireBody renders m's full frame body (metadata followed by the
// payload section) into one contiguous slice. The transport proper never
// materializes this — it hands meta and payloads to the socket as separate
// iovecs — but tests and size audits want the exact on-wire bytes.
func WireBody(m Msg) ([]byte, bool) {
	c, ok := CodecOf(m)
	if !ok {
		return nil, false
	}
	meta, payloads := c.AppendWire(m, nil, nil)
	for _, p := range payloads {
		meta = append(meta, p...)
	}
	return meta, true
}
