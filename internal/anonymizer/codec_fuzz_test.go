package anonymizer

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/reversecloak/reversecloak/internal/cloak"
	"github.com/reversecloak/reversecloak/internal/profile"
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// The two fuzz targets below guard the binary wire codec the same way
// FuzzDecodeWALRecord guards the WAL: FuzzDecodeBinaryFrame feeds the
// frame reader and message decoders attacker-controlled bytes (never
// panic, never over-read), and FuzzCodecRoundTrip is differential — it
// grows a structured Request/Response from the fuzz input and pins that
// the JSON and binary codecs decode to identical structs, so the two
// wire formats can never drift apart silently. CI runs a short
// -fuzztime smoke over both on every push (make fuzz-smoke).

// fuzzGen derives structured values from a fuzz input deterministically;
// exhausted input yields zeros. The derived values are canonical by
// construction where the codecs legitimately differ in spelling:
// strings stay in a printable charset (JSON escapes what binary ships
// raw), floats stay finite (JSON cannot carry NaN/Inf), and empty
// slices/maps stay nil (omitempty drops the empty-but-non-nil spelling
// on the JSON side only).
type fuzzGen struct {
	data []byte
	pos  int
}

func (g *fuzzGen) byte() byte {
	if g.pos >= len(g.data) {
		return 0
	}
	b := g.data[g.pos]
	g.pos++
	return b
}

func (g *fuzzGen) bool() bool     { return g.byte()&1 == 1 }
func (g *fuzzGen) intn(n int) int { return int(g.byte()) % n }

func (g *fuzzGen) u64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(g.byte())
	}
	return v
}

func (g *fuzzGen) i64() int64 { return int64(g.u64()) }

// f64 returns a finite float: a 53-bit integer scaled down, always
// exactly representable.
func (g *fuzzGen) f64() float64 { return float64(int64(g.u64())>>11) / 32.0 }

const fuzzCharset = "abcdefghijklmnopqrstuvwxyz0123456789"

func (g *fuzzGen) str() string {
	n := g.intn(9)
	b := make([]byte, n)
	for i := range b {
		b[i] = fuzzCharset[g.intn(len(fuzzCharset))]
	}
	return string(b)
}

// rawBytes returns nil or 1..8 arbitrary bytes (JSON base64 and the
// binary codec both carry any byte value).
func (g *fuzzGen) rawBytes() []byte {
	n := g.intn(9)
	if n == 0 {
		return nil
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = g.byte()
	}
	return b
}

func (g *fuzzGen) request() Request {
	req := Request{
		V:           g.intn(4),
		Op:          Op(g.str()),
		UserSegment: roadnet.SegmentID(g.i64()),
		Algorithm:   g.str(),
		TTLMillis:   g.i64(),
		RegionID:    g.str(),
		Requester:   g.str(),
		ToLevel:     int(g.i64()),
		Epoch:       g.u64(),
		WasLeader:   g.bool(),
		Follower:    g.str(),
		Watermark:   g.u64(),
		Since:       g.str(),
		Tenant:      g.str(),
		Token:       g.str(),
	}
	if g.bool() {
		p := &profile.Profile{}
		for i, n := 0, g.intn(3); i < n; i++ {
			p.Levels = append(p.Levels, profile.Level{
				K: int(g.i64()), L: int(g.i64()), SigmaS: g.f64(),
			})
		}
		req.Profile = p
	}
	return req
}

func (g *fuzzGen) region() *cloak.CloakedRegion {
	cr := &cloak.CloakedRegion{Algorithm: cloak.Algorithm(g.byte())}
	for i, n := 0, g.intn(5); i < n; i++ {
		cr.Segments = append(cr.Segments, roadnet.SegmentID(g.i64()))
	}
	for i, n := 0, g.intn(3); i < n; i++ {
		m := cloak.LevelMeta{Steps: int(g.i64()), Salt: uint32(g.u64()), SigmaS: g.f64()}
		for j, nt := 0, g.intn(3); j < nt; j++ {
			// Present tags may be empty; both codecs decode them non-nil.
			m.Tags = append(m.Tags, append([]byte{}, g.rawBytes()...))
		}
		cr.Levels = append(cr.Levels, m)
	}
	return cr
}

func (g *fuzzGen) response() Response {
	resp := Response{
		V:               g.intn(4),
		OK:              g.bool(),
		Error:           g.str(),
		Code:            g.str(),
		Tenant:          g.str(),
		RegionID:        g.str(),
		Levels:          int(g.i64()),
		ExpiresAtMillis: g.i64(),
		Archive:         g.rawBytes(),
		Leader:          g.str(),
		Epoch:           g.u64(),
		Watermark:       g.u64(),
	}
	if g.bool() {
		v := int(g.i64())
		resp.Level = &v
	}
	if n := g.intn(3); n > 0 {
		resp.Caps = make([]string, n)
		for i := range resp.Caps {
			resp.Caps[i] = g.str()
		}
	}
	if g.bool() {
		resp.Region = g.region()
	}
	if n := g.intn(3); n > 0 {
		resp.Keys = make(map[int]string, n)
		for i := 0; i < n; i++ {
			resp.Keys[int(g.i64())] = g.str()
		}
	}
	if g.bool() {
		rs := &ReplStatus{Role: g.str(), Epoch: g.u64(), Watermark: g.u64(), LeaderAddr: g.str()}
		if g.bool() {
			lag := g.i64()
			rs.LagFrames = &lag
		}
		for i, n := 0, g.intn(3); i < n; i++ {
			rs.Followers = append(rs.Followers, FollowerStatus{
				Addr: g.str(), Behind: g.i64(), LastAckMillis: g.i64(),
			})
		}
		resp.Repl = rs
	}
	return resp
}

// FuzzCodecRoundTrip is the cross-codec differential harness: for every
// generated message, marshal/unmarshal through encoding/json and
// encode/decode through the binary codec (including the CRC frame
// layer), and require the two decoded structs to be identical. Any
// field a codec drops, re-spells or mis-orders fails the property.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("reversecloak"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 250, 128, 64, 32, 16, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &fuzzGen{data: data}
		req := g.request()
		resp := g.response()

		jsonReq := jsonRoundTripRequest(t, &req)
		binReq := binaryRoundTripRequest(t, &req)
		if !reflect.DeepEqual(jsonReq, binReq) {
			t.Fatalf("request codecs diverge:\n json: %#v\n  bin: %#v", jsonReq, binReq)
		}

		jsonResp := jsonRoundTripResponse(t, &resp)
		binResp := binaryRoundTripResponse(t, &resp)
		if !reflect.DeepEqual(jsonResp, binResp) {
			t.Fatalf("response codecs diverge:\n json: %#v\n  bin: %#v", jsonResp, binResp)
		}
	})
}

func jsonRoundTripRequest(t *testing.T, req *Request) *Request {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("json encode: %v", err)
	}
	out := &Request{}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("json decode: %v", err)
	}
	return out
}

func binaryRoundTripRequest(t *testing.T, req *Request) *Request {
	t.Helper()
	framed, err := appendWireFrame(nil, func(b []byte) []byte {
		return appendRequest(b, req)
	})
	if err != nil {
		t.Fatalf("frame encode: %v", err)
	}
	payload, err := readWireFrame(bytes.NewReader(framed), nil)
	if err != nil {
		t.Fatalf("frame decode: %v", err)
	}
	out := &Request{}
	if err := decodeRequest(payload, out); err != nil {
		t.Fatalf("binary decode: %v", err)
	}
	return out
}

func jsonRoundTripResponse(t *testing.T, resp *Response) *Response {
	t.Helper()
	data, err := json.Marshal(resp)
	if err != nil {
		t.Fatalf("json encode: %v", err)
	}
	out := &Response{}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("json decode: %v", err)
	}
	return out
}

func binaryRoundTripResponse(t *testing.T, resp *Response) *Response {
	t.Helper()
	framed, err := appendWireFrame(nil, func(b []byte) []byte {
		return appendResponse(b, resp)
	})
	if err != nil {
		t.Fatalf("frame encode: %v", err)
	}
	payload, err := readWireFrame(bytes.NewReader(framed), nil)
	if err != nil {
		t.Fatalf("frame decode: %v", err)
	}
	out := &Response{}
	if err := decodeResponse(payload, out); err != nil {
		t.Fatalf("binary decode: %v", err)
	}
	return out
}

// FuzzDecodeBinaryFrame feeds arbitrary bytes through the frame reader
// and both message decoders: no input may panic or over-allocate, and a
// frame whose CRC fails must never yield a message.
func FuzzDecodeBinaryFrame(f *testing.F) {
	// Seed with well-formed frames (and mutations of them) so the fuzzer
	// reaches the tag dispatch quickly.
	lvl := 1
	resp := &Response{V: 2, OK: true, RegionID: "r-1", Level: &lvl,
		Keys: map[int]string{0: "aa", 2: "bb"}}
	respFrame, err := appendWireFrame(nil, func(b []byte) []byte {
		return appendResponse(b, resp)
	})
	if err != nil {
		f.Fatal(err)
	}
	req := &Request{V: 2, Op: OpAnonymize, UserSegment: 7,
		Profile: &profile.Profile{Levels: []profile.Level{{K: 4, L: 2}}}}
	reqFrame, err := appendWireFrame(nil, func(b []byte) []byte {
		return appendRequest(b, req)
	})
	if err != nil {
		f.Fatal(err)
	}
	flipped := append([]byte(nil), reqFrame...)
	flipped[len(flipped)-1] ^= 0x10
	f.Add([]byte(nil))
	f.Add(reqFrame)
	f.Add(respFrame)
	f.Add(reqFrame[:len(reqFrame)-2])
	f.Add(flipped)
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}) // forged huge length

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := readWireFrame(bytes.NewReader(data), nil)
		if err == nil {
			// CRC-intact frame: the decoders may reject the payload but
			// must not panic.
			var rq Request
			_ = decodeRequest(payload, &rq)
			var rs Response
			_ = decodeResponse(payload, &rs)
		}
		// The unframed decoders face pooled-buffer contents on a live
		// connection only after a CRC check, but must hold the no-panic
		// contract on raw bytes regardless.
		var rq Request
		_ = decodeRequest(data, &rq)
		var rs Response
		_ = decodeResponse(data, &rs)
	})
}

// TestDecodeRefusesRetiredTags pins the retirement of binary tags whose
// meaning went away: the batch ops (request tag 10, response tag 14), the
// per-shard replication fields (request tag 14: watermark; response tags
// 17-20: shards, watermark, frames, repl status) and the repl_frames
// poll's fields (request tag 15: max_frames; response tag 22: frames). A
// v2 frame carrying one is malformed like any unknown tag, so an old
// peer's frame drops the connection instead of being half-read.
func TestDecodeRefusesRetiredTags(t *testing.T) {
	// One nested item, then the message's end tag.
	withTag := func(msg []byte, tag byte) []byte {
		return append(msg[:len(msg)-1], tag, 1, 0, 0)
	}
	for _, tag := range []byte{10, 14, 15} {
		req := withTag(appendRequest(nil, &Request{V: 2, Op: OpBackup}), tag)
		framed, err := appendWireFrame(nil, func(b []byte) []byte { return append(b, req...) })
		if err != nil {
			t.Fatal(err)
		}
		payload, err := readWireFrame(bytes.NewReader(framed), nil)
		if err != nil {
			t.Fatalf("frame layer refused an intact frame: %v", err)
		}
		var rq Request
		if err := decodeRequest(payload, &rq); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("tag %d", tag)) {
			t.Errorf("request with tag %d: err = %v, want an unknown-tag error", tag, err)
		}
	}
	for _, tag := range []byte{14, 17, 18, 19, 20, 22} {
		resp := withTag(appendResponse(nil, &Response{V: 2, OK: true}), tag)
		var rs Response
		if err := decodeResponse(resp, &rs); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("tag %d", tag)) {
			t.Errorf("response with tag %d: err = %v, want an unknown-tag error", tag, err)
		}
	}
}
