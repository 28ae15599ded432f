package core

import (
	"bytes"
	"testing"

	"adsm/internal/mem"
	"adsm/internal/transport"
	"adsm/internal/vc"
)

// sampleDiff builds a diff with the given number of modified bytes.
func sampleDiff(pg, bytes int) *mem.Diff {
	twin := mem.NewPage()
	cur := mem.NewPage()
	for i := 0; i < bytes; i++ {
		cur[64+i] = byte(i + 1)
	}
	return mem.MakeDiff(pg, twin, cur)
}

// multiRunDiff builds a diff of several runs, including a one-byte run
// and a run ending at the last byte of the page.
func multiRunDiff(pg int) *mem.Diff {
	return &mem.Diff{Page: pg, Runs: []mem.Run{
		{Off: 0, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{Off: 200, Data: []byte{9}},
		{Off: 4000, Data: bytes.Repeat([]byte{0xab}, 96)},
	}}
}

func sampleVC() vc.VC { return vc.VC{3, 1, 4, 1, 5, 9, 2, 6} }

func sampleIntervals() []*Interval {
	iv1 := &Interval{Proc: 2, TS: 7, VC: sampleVC()}
	iv1.WNs = []*WriteNotice{
		{Page: 5, Int: iv1, Owner: false, DataHint: 800},
		{Page: 9, Int: iv1, Owner: true, Version: 3},
	}
	iv2 := &Interval{Proc: 0, TS: 4, VC: sampleVC()}
	iv2.WNs = []*WriteNotice{{Page: 1, Int: iv2, Owner: false, DataHint: 96}}
	return []*Interval{iv1, iv2}
}

// msgSamples returns representative values of every registered core
// message — the shared table behind the wire-size audit, the round-trip
// test and the fuzz seed corpus. Each entry exercises the message's
// interesting shapes (payloads, piggybacked intervals, unserved/denied
// variants, nil slices, negative "none" markers).
func msgSamples() map[string][]transport.Msg {
	nprocs := 8
	return map[string][]transport.Msg{
		"pageReq":  {pageReq{Page: 17}, pageReq{Page: 9000, Hops: 3}},
		"pageResp": {pageResp{Data: mem.NewPage(), Applied: sampleVC()}},
		"diffReq": {diffReq{Page: 4, Wants: []wnKey{{page: 4, proc: 1, ts: 9}, {page: 4, proc: 3, ts: 2}},
			SeesFS: true}},
		"diffResp": {diffResp{
			Diffs: []*mem.Diff{sampleDiff(4, 1000), sampleDiff(4, 24)},
			Keys:  []wnKey{{page: 4, proc: 1, ts: 9}, {page: 4, proc: 3, ts: 2}},
		}},
		"spanFetchReq": {
			spanFetchReq{Pages: []int{4, 5, 6}},
			spanFetchReq{
				Pages: []int{9},
				Diffs: []spanDiffWant{
					{Page: 4, Wants: []wnKey{{page: 4, proc: 1, ts: 9}, {page: 4, proc: 3, ts: 2}}, SeesFS: true},
					{Page: 5, Wants: []wnKey{{page: 5, proc: 2, ts: 7}}},
				},
			},
		},
		"spanFetchResp": {
			spanFetchResp{Pages: []spanPageCopy{
				{Page: 4, Served: true, Data: mem.NewPage(), Applied: sampleVC()},
				{Page: 5}, // unserved: ownership transition in flight
			}},
			spanFetchResp{
				Pages: []spanPageCopy{{Page: 9, Served: true, Data: mem.NewPage(), Applied: sampleVC()}},
				Diffs: []spanDiffBundle{
					{Page: 4, Keys: []wnKey{{page: 4, proc: 1, ts: 9}, {page: 4, proc: 3, ts: 2}},
						Diffs: []*mem.Diff{sampleDiff(4, 1000), sampleDiff(4, 24)}},
					{Page: 5, Keys: []wnKey{{page: 5, proc: 2, ts: 7}},
						Diffs: []*mem.Diff{sampleDiff(5, 640)}},
				},
			},
		},
		"regionReadReq": {regionReadReq{Page: 17}, regionReadReq{Page: 9000, Hops: 3}},
		"regionReadResp": {
			regionReadResp{Data: mem.NewPage(), Applied: sampleVC()},
			regionReadResp{}, // miss: page not published
		},
		"regionSpanReq": {regionSpanReq{Pages: []int{4, 5, 6}}, regionSpanReq{Pages: []int{9}}},
		"regionSpanResp": {
			regionSpanResp{Pages: []spanPageCopy{
				{Page: 4, Served: true, Data: mem.NewPage(), Applied: sampleVC()},
				{Page: 5, Served: true, Data: mem.NewPage(), Applied: sampleVC()},
			}},
			regionSpanResp{}, // miss: some page in the span not published
		},
		"ownReq": {ownReq{Page: 11, Version: 5, NeedPage: true, Applied: sampleVC()}},
		"ownBatchReq": {ownBatchReq{Reqs: []ownReq{
			{Page: 11, Version: 5, NeedPage: true, Applied: sampleVC()},
			{Page: 12, Version: 0, Applied: sampleVC()},
		}}},
		"ownBatchResp": {ownBatchResp{Resps: []ownResp{
			{Granted: true, Version: 6, Data: mem.NewPage(), Applied: sampleVC()},
			{Granted: false, Version: 6},
		}}},
		"ownResp": {
			ownResp{Granted: true, Version: 6, Data: mem.NewPage(), Applied: sampleVC()},
			ownResp{Granted: false, Version: 6},
		},
		"swOwnReq":   {swOwnReq{Page: 3, Hops: 1}},
		"swOwnGrant": {swOwnGrant{Version: 9, Data: mem.NewPage(), Applied: sampleVC()}},
		"hlrcFlush": {
			hlrcFlush{VC: sampleVC(), Entries: []hlrcEntry{
				{Page: 2, Diff: sampleDiff(2, 640)},
				{Page: 7, Diff: sampleDiff(7, 48)},
			}},
			hlrcFlush{VC: sampleVC(), Entries: []hlrcEntry{
				{Page: 300, Diff: multiRunDiff(300)},
				{Page: 3, Diff: &mem.Diff{Page: 3}}, // empty diff: no runs
			}},
			hlrcFlush{VC: sampleVC()},
		},
		"hlrcAck":      {hlrcAck{}},
		"homeBindReq":  {homeBindReq{Page: 12}, homeBindReq{Page: 70000}},
		"homeBindResp": {homeBindResp{Home: 5}},
		"acqReq":       {acqReq{Lock: 7, KnownTS: []int32{3, 1, 4, 1, 5, 9, 2, 6}}, acqReq{Lock: 1}},
		"acqFwd": {
			acqFwd{Lock: 7, Origin: 2, KnownTS: []int32{3, 1, 4, 1, 5, 9, 2, 6}},
			acqFwd{Lock: 130, Origin: 0},
		},
		"acqGrant": {
			acqGrant{Intervals: sampleIntervals(), VC: sampleVC()},
			acqGrant{Intervals: []*Interval{{Proc: 1, TS: 300, VC: sampleVC()}}, VC: sampleVC()},
			acqGrant{VC: sampleVC()},
		},
		"barArrive": {barArrive{Epoch: 12, KnownTS: []int32{3, 1, 4, 1, 5, 9, 2, 6},
			Intervals: sampleIntervals(), MemPressure: true, nprocs: nprocs}},
		"ckptPut": {
			ckptPut{From: 1, Step: 4, Pages: []ckptPage{
				{Page: 3, Data: mem.NewPage(), Proto: 0, Sum: 12345},
				{Page: 7, Data: mem.NewPage(), Proto: 4, Sum: 99},
				{Page: 9, Proto: 1, Sum: ckptSum(nil)}, // empty page frame
			}},
			ckptPut{From: 2, Step: 200},
		},
		"ckptAck": {ckptAck{}},
		"recArrive": {
			recArrive{Node: 2, OwnCommitted: 4, OwnPending: 5, RepCommitted: 4, RepPending: 5},
			recArrive{Node: 1, OwnCommitted: -1, OwnPending: -1, RepCommitted: -1, RepPending: -1},
		},
		"recRelease": {recRelease{Step: 4, Restorer: []int{0, 1, 2, 3}}, recRelease{Step: -1}},
		"recProtoArrive": {
			recProtoArrive{Node: 1, Switches: []policySwitch{
				{Page: 2, Proto: 4, Owner: 1, Version: 1}, {Page: 5, Proto: 0, Owner: 1, Version: 1}}},
			recProtoArrive{Node: 3},
		},
		"recProtoRelease": {
			recProtoRelease{Switches: []policySwitch{{Page: 2, Proto: 4, Owner: 1, Version: 1}}},
			recProtoRelease{},
		},
		"barRelease": {
			barRelease{Intervals: sampleIntervals(), Global: []int32{3, 1, 4, 1, 5, 9, 2, 6},
				GC: true, Hints: []gcHint{{Page: 1, Owner: 2, Version: 3}, {Page: 9, Owner: 0, Version: 1}},
				nprocs: nprocs},
			barRelease{Global: []int32{3, 1, 4, 1, 5, 9, 2, 6},
				Switches: []policySwitch{{Page: 2, Proto: 0, Owner: 1, Version: 4}, {Page: 6, Proto: 4, Owner: 0, Version: 0}},
				nprocs:   nprocs},
		},
	}
}

// TestMessageLaneClasses pins each hot message's codec class — the key the
// tcp runtime selects lanes with. Large payload carriers must be bulk (so
// they ride the bulk lane and cannot head-of-line block barrier or
// ownership traffic), every request and control-plane message must stay on
// the control lane (requests must never reorder against the grants and
// releases they race with), and the one-sided messages get the region lane.
func TestMessageLaneClasses(t *testing.T) {
	want := map[transport.Class][]transport.Msg{
		transport.ClassControl: {
			pageReq{}, diffReq{}, spanFetchReq{}, ownReq{}, ownResp{},
			ownBatchReq{}, ownBatchResp{}, swOwnReq{}, swOwnGrant{},
			barArrive{}, barRelease{}, acqReq{}, acqGrant{},
			hlrcFlush{}, hlrcAck{},
		},
		transport.ClassBulk:   {pageResp{}, diffResp{}, spanFetchResp{}},
		transport.ClassRegion: {regionReadReq{}, regionReadResp{}, regionSpanReq{}, regionSpanResp{}},
	}
	for class, msgs := range want {
		for _, m := range msgs {
			if got := transport.ClassOf(m); got != class {
				t.Errorf("%T: class %v, want %v", m, got, class)
			}
		}
	}
}

// allSamples is msgSamples plus every registered codec's zero-value
// message, so the audits also cover each message's emptiest encoding.
func allSamples() map[string][]transport.Msg {
	samples := msgSamples()
	for _, c := range transport.Codecs() {
		samples[c.Name] = append(samples[c.Name], c.Msg)
	}
	return samples
}

// TestMsgSizeMatchesWire pins the cost model to the wire: for every
// sample of every registered protocol message, Size() must equal the
// encoded frame body byte for byte, since the simulator's byte model, the
// traffic counters and the real transport all read the same codec table.
// A failure here means a Size() method drifted from what the wire moves.
func TestMsgSizeMatchesWire(t *testing.T) {
	samples := msgSamples()
	for _, c := range transport.Codecs() {
		if len(samples[c.Name]) == 0 {
			t.Errorf("registered codec %q has no wire-size sample", c.Name)
		}
	}
	for name, msgs := range allSamples() {
		for i, m := range msgs {
			body, ok := transport.WireBody(m)
			if !ok {
				t.Fatalf("%s[%d]: %T has no codec", name, i, m)
			}
			if m.Size() != len(body) {
				t.Errorf("%s[%d]: declared Size()=%d but the wire body is %d bytes",
					name, i, m.Size(), len(body))
			}
		}
	}
}
