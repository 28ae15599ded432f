package transport

import (
	"strings"
	"testing"
)

type hooklessMsg struct{}

func (hooklessMsg) Size() int { return 0 }

func appendNothing(_ Msg, b []byte, payloads [][]byte) ([]byte, [][]byte) { return b, payloads }

func decodeNothing([]byte) (Msg, error) { return hooklessMsg{}, nil }

// TestRegisterCodecRequiresWireHooks pins that a codec is its encoding:
// registration refuses a codec missing either wire hook, and refuses any
// codec once the wire ids are frozen (a late codec would renumber the
// wire under peers that already agreed on the digest).
func TestRegisterCodecRequiresWireHooks(t *testing.T) {
	for _, c := range []Codec{
		{Name: "test.none", Msg: hooklessMsg{}},
		{Name: "test.noDecode", Msg: hooklessMsg{}, AppendWire: appendNothing},
		{Name: "test.noAppend", Msg: hooklessMsg{}, DecodeWire: decodeNothing},
	} {
		if err := RegisterCodec(c); err == nil || !strings.Contains(err.Error(), "AppendWire and DecodeWire") {
			t.Errorf("%s: RegisterCodec = %v, want a missing-hook error", c.Name, err)
		}
	}
	WireDigest() // freezes the wire ids
	err := RegisterCodec(Codec{Name: "test.late", Msg: hooklessMsg{},
		AppendWire: appendNothing, DecodeWire: decodeNothing})
	if err == nil || !strings.Contains(err.Error(), "frozen") {
		t.Errorf("late RegisterCodec = %v, want a frozen-wire error", err)
	}
}
