package main

import (
	"bufio"
	"bytes"
	"io"
	"time"

	"repro/internal/kvproto"
)

// protoLayer replays the first protoReplayCap requests of a TCP stream
// through the kvproto library alone, over in-memory buffers: the client
// encodes them, the server-side Reader parses them, the reply writers
// serialize what the run answered (same hits, same value sizes), and the
// client decodes those replies. Each stage is timed as one loop, so the
// figures carry no per-call clock reads. The server's vectored path for
// replies ≥ 4 KiB is not modelled: here every reply goes through bufio.
const protoReplayCap = 5000

type memConn struct {
	io.Reader
	io.Writer
}

func (memConn) Close() error { return nil }

type protoReq struct {
	kind  opKind
	keys  [][]byte
	sizes []int32 // per key for reads: bytes returned, -1 on a miss
	size  int32   // writes: value bytes
}

func protoRequests(s refStream) []protoReq {
	var reqs []protoReq
	for i := 0; i < s.n; i++ {
		op := s.at(i)
		key := []byte(s.keyName(op.key))
		if op.cont && len(reqs) > 0 {
			r := &reqs[len(reqs)-1]
			r.kind = opMGet
			r.keys = append(r.keys, key)
			r.sizes = append(r.sizes, op.size)
			continue
		}
		if len(reqs) == protoReplayCap {
			break
		}
		reqs = append(reqs, protoReq{kind: op.kind, keys: [][]byte{key}, sizes: []int32{op.size}, size: op.size})
	}
	return reqs
}

func protoLayer(s refStream) map[string]float64 {
	reqs := protoRequests(s)
	zero := make([]byte, kvproto.MaxValueBytes)
	var wire, replies bytes.Buffer

	enc := kvproto.NewClient(memConn{Writer: &wire})
	t0 := time.Now()
	for i := range reqs {
		r := &reqs[i]
		switch r.kind {
		case opGet:
			enc.SendGet(r.keys[0])
		case opMGet:
			enc.SendMultiGet(r.keys)
		case opGets:
			enc.SendGets(r.keys[0])
		case opSet:
			enc.SendSet(r.keys[0], 0, 0, zero[:r.size])
		case opDel:
			enc.SendDelete(r.keys[0])
		case opCas:
			enc.SendCas(r.keys[0], 0, 0, 1, zero[:r.size])
		}
	}
	enc.Flush()
	encode := time.Since(t0)

	rd := kvproto.NewReader(bytes.NewReader(wire.Bytes()))
	var req kvproto.Request
	t0 = time.Now()
	for range reqs {
		if rd.Next(&req) != nil {
			break
		}
	}
	parse := time.Since(t0)

	bw := bufio.NewWriterSize(io.Discard, 4096)
	t0 = time.Now()
	writeReplies(bw, reqs, zero)
	reply := time.Since(t0)
	bw = bufio.NewWriterSize(&replies, 4096)
	writeReplies(bw, reqs, zero)

	dec := kvproto.NewClient(memConn{Reader: bytes.NewReader(replies.Bytes())})
	t0 = time.Now()
	for i := range reqs {
		r := &reqs[i]
		var err error
		switch r.kind {
		case opGet:
			_, _, err = dec.ReadGetReply()
		case opMGet:
			err = dec.ReadMultiGetReply(r.keys, func(int, uint32, []byte) {})
		case opGets:
			_, _, _, _, err = dec.ReadGetsReply()
		case opSet:
			err = dec.ReadSetReply()
		case opDel:
			_, err = dec.ReadDeleteReply()
		case opCas:
			_, err = dec.ReadCasReply()
		}
		if err != nil {
			break
		}
	}
	decode := time.Since(t0)

	n := float64(len(reqs))
	return map[string]float64{
		"kvproto.parse_ns":  ratio(float64(parse), n),
		"kvproto.reply_ns":  ratio(float64(reply), n),
		"kvproto.client_ns": ratio(float64(encode+decode), n),
	}
}

// writeReplies serializes the replies the run gave to reqs.
func writeReplies(bw *bufio.Writer, reqs []protoReq, zero []byte) {
	for i := range reqs {
		r := &reqs[i]
		switch r.kind {
		case opGet, opMGet:
			for j, k := range r.keys {
				if r.sizes[j] >= 0 {
					kvproto.WriteValue(bw, k, 0, zero[:r.sizes[j]])
				}
			}
			kvproto.WriteEnd(bw)
		case opGets:
			if r.sizes[0] >= 0 {
				kvproto.WriteValueCas(bw, r.keys[0], 0, 1, zero[:r.sizes[0]])
			}
			kvproto.WriteEnd(bw)
		case opSet, opCas:
			kvproto.WriteStored(bw)
		case opDel:
			kvproto.WriteDeleted(bw)
		}
	}
	bw.Flush()
}
