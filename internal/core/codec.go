package core

import "adsm/internal/transport"

// The codec table: every protocol message registers its wire name, lane
// class and binary encoding (wire.go) with the transport codec registry,
// so real transports (internal/transport/tcp) can carry it. This table is
// the one place that defines a message's bytes; the simulator never
// encodes, but charges each message its Size(), which msgs.go keeps equal
// to the encoded length (pinned by TestMsgSizeMatchesWire).

func init() {
	reg := func(class transport.Class, name string, m transport.Msg,
		aw func(transport.Msg, []byte, [][]byte) ([]byte, [][]byte),
		dw func([]byte) (transport.Msg, error)) {
		transport.MustRegisterCodec(transport.Codec{Name: name, Class: class, Msg: m, AppendWire: aw, DecodeWire: dw})
	}
	ctl, bulk, region := transport.ClassControl, transport.ClassBulk, transport.ClassRegion
	reg(ctl, "pageReq", pageReq{}, pageReqAppendWire, pageReqDecodeWire)
	reg(bulk, "pageResp", pageResp{}, pageRespAppendWire, pageRespDecodeWire)
	reg(ctl, "diffReq", diffReq{}, diffReqAppendWire, diffReqDecodeWire)
	reg(bulk, "diffResp", diffResp{}, diffRespAppendWire, diffRespDecodeWire)
	reg(ctl, "spanFetchReq", spanFetchReq{}, spanFetchReqAppendWire, spanFetchReqDecodeWire)
	reg(bulk, "spanFetchResp", spanFetchResp{}, spanFetchRespAppendWire, spanFetchRespDecodeWire)
	reg(region, "regionReadReq", regionReadReq{}, regionReadReqAppendWire, regionReadReqDecodeWire)
	reg(region, "regionReadResp", regionReadResp{}, regionReadRespAppendWire, regionReadRespDecodeWire)
	reg(region, "regionSpanReq", regionSpanReq{}, regionSpanReqAppendWire, regionSpanReqDecodeWire)
	reg(region, "regionSpanResp", regionSpanResp{}, regionSpanRespAppendWire, regionSpanRespDecodeWire)
	reg(ctl, "ownReq", ownReq{}, ownReqAppendWire, ownReqDecodeWire)
	reg(ctl, "ownResp", ownResp{}, ownRespAppendWire, ownRespDecodeWire)
	reg(ctl, "ownBatchReq", ownBatchReq{}, ownBatchReqAppendWire, ownBatchReqDecodeWire)
	reg(ctl, "ownBatchResp", ownBatchResp{}, ownBatchRespAppendWire, ownBatchRespDecodeWire)
	reg(ctl, "swOwnReq", swOwnReq{}, swOwnReqAppendWire, swOwnReqDecodeWire)
	reg(ctl, "swOwnGrant", swOwnGrant{}, swOwnGrantAppendWire, swOwnGrantDecodeWire)
	reg(ctl, "hlrcFlush", hlrcFlush{}, hlrcFlushAppendWire, hlrcFlushDecodeWire)
	reg(ctl, "hlrcAck", hlrcAck{}, emptyAppendWire, emptyDecodeWire(hlrcAck{}))
	reg(ctl, "homeBindReq", homeBindReq{}, homeBindReqAppendWire, homeBindReqDecodeWire)
	reg(ctl, "homeBindResp", homeBindResp{}, homeBindRespAppendWire, homeBindRespDecodeWire)
	reg(ctl, "acqReq", acqReq{}, acqReqAppendWire, acqReqDecodeWire)
	reg(ctl, "acqFwd", acqFwd{}, acqFwdAppendWire, acqFwdDecodeWire)
	reg(ctl, "acqGrant", acqGrant{}, acqGrantAppendWire, acqGrantDecodeWire)
	reg(ctl, "barArrive", barArrive{}, barArriveAppendWire, barArriveDecodeWire)
	reg(ctl, "barRelease", barRelease{}, barReleaseAppendWire, barReleaseDecodeWire)
	reg(bulk, "ckptPut", ckptPut{}, ckptPutAppendWire, ckptPutDecodeWire)
	reg(ctl, "ckptAck", ckptAck{}, emptyAppendWire, emptyDecodeWire(ckptAck{}))
	reg(ctl, "recArrive", recArrive{}, recArriveAppendWire, recArriveDecodeWire)
	reg(ctl, "recRelease", recRelease{}, recReleaseAppendWire, recReleaseDecodeWire)
	reg(ctl, "recProtoArrive", recProtoArrive{}, recProtoArriveAppendWire, recProtoArriveDecodeWire)
	reg(ctl, "recProtoRelease", recProtoRelease{}, recProtoReleaseAppendWire, recProtoReleaseDecodeWire)
}
