package anonymizer

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"github.com/reversecloak/reversecloak/internal/cloak"
	"github.com/reversecloak/reversecloak/internal/profile"
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// Binary message encoding (protocol v2). One frame payload is one
// Request or Response as a sequence of tagged fields terminated by tag
// 0: uvarint tag, then the field's value in the type-specific encoding
// below. Fields at their zero value are omitted, mirroring the JSON
// encoding's omitempty, so the two codecs decode to identical structs —
// the property FuzzCodecRoundTrip pins. Scalar encodings:
//
//	signed ints    zigzag varint (encoding/binary Varint)
//	unsigned ints  uvarint
//	bool           uvarint 1 (omitted when false)
//	float64        8 bytes, little-endian IEEE 754 bits
//	string/[]byte  uvarint length + raw bytes (no base64)
//	slices         uvarint count + elements
//	maps           uvarint count + key/value pairs in sorted key order
//	sub-structs    positional fields (fixed shape, no tags)
//
// Region segment sets are delta-encoded (first absolute, then zigzag
// deltas): segments are sorted ascending, so deltas are small. Unknown
// tags are a hard decode error — the major version gates meaning, not
// silent skipping — and so are retired tags, which are never reused.
// Decoders copy every string and byte slice out of the frame buffer, so
// frame buffers are reusable the moment decoding returns.

// Request field tags.
const (
	reqTagEnd         = 0
	reqTagV           = 1  // varint
	reqTagOp          = 2  // string
	reqTagUserSegment = 3  // varint
	reqTagProfile     = 4  // profile sub-struct
	reqTagAlgorithm   = 5  // string
	reqTagTTLMillis   = 6  // varint
	reqTagRegionID    = 7  // string
	reqTagRequester   = 8  // string
	reqTagToLevel     = 9  // varint
	_                 = 10 // retired (batch ops); never reuse
	reqTagEpoch       = 11 // uvarint
	reqTagWasLeader   = 12 // bool
	reqTagFollower    = 13 // string
	_                 = 14 // retired (per-shard watermark); never reuse
	_                 = 15 // retired (max_frames); never reuse
	reqTagSince       = 16 // string
	reqTagTenant      = 17 // string
	reqTagToken       = 18 // string
	reqTagWatermark   = 19 // uvarint
)

// Response field tags.
const (
	respTagEnd             = 0
	respTagV               = 1  // varint
	respTagOK              = 2  // bool
	respTagError           = 3  // string
	respTagCode            = 4  // string
	respTagTenant          = 5  // string
	respTagCaps            = 6  // count + strings
	respTagRegionID        = 7  // string
	respTagRegion          = 8  // region sub-struct
	respTagLevels          = 9  // varint
	respTagExpiresAtMillis = 10 // varint
	respTagLevel           = 11 // varint (presence encodes the non-nil pointer)
	respTagKeys            = 12 // count + (varint level, string key) sorted
	respTagArchive         = 13 // bytes
	_                      = 14 // retired (batch ops); never reuse
	respTagLeader          = 15 // string
	respTagEpoch           = 16 // uvarint
	_                      = 17 // retired (shard count); never reuse
	_                      = 18 // retired (per-shard watermark); never reuse
	_                      = 19 // retired (per-shard frames); never reuse
	_                      = 20 // retired (per-shard repl status); never reuse
	respTagWatermark       = 21 // uvarint
	_                      = 22 // retired (frames); never reuse
	respTagRepl            = 23 // repl-status sub-struct
)

// errBinaryTruncated reports a frame that ended inside a value.
var errBinaryTruncated = fmt.Errorf("anonymizer: binary message truncated")

// --- primitive append helpers -----------------------------------------

func appendTagUvarint(b []byte, tag uint64, v uint64) []byte {
	b = binary.AppendUvarint(b, tag)
	return binary.AppendUvarint(b, v)
}

func appendTagVarint(b []byte, tag uint64, v int64) []byte {
	b = binary.AppendUvarint(b, tag)
	return binary.AppendVarint(b, v)
}

func appendTagString(b []byte, tag uint64, s string) []byte {
	b = binary.AppendUvarint(b, tag)
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendTagBytes(b []byte, tag uint64, p []byte) []byte {
	b = binary.AppendUvarint(b, tag)
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// --- binReader: sticky-position decoder over one frame payload --------

type binReader struct {
	buf []byte
	pos int
}

func (r *binReader) remaining() int { return len(r.buf) - r.pos }

func (r *binReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		return 0, errBinaryTruncated
	}
	r.pos += n
	return v, nil
}

func (r *binReader) varint() (int64, error) {
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		return 0, errBinaryTruncated
	}
	r.pos += n
	return v, nil
}

func (r *binReader) vint() (int, error) {
	v, err := r.varint()
	return int(v), err
}

// count reads an element count and rejects counts that could not fit in
// the remaining bytes (every element costs at least one byte), so a
// forged count cannot demand a huge allocation.
func (r *binReader) count() (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(r.remaining()) {
		return 0, fmt.Errorf("anonymizer: binary count %d exceeds %d remaining bytes",
			v, r.remaining())
	}
	return int(v), nil
}

// bytes reads a length-prefixed byte string as a copy. Zero length
// decodes to nil when emptyNil (matching omitempty fields, which are
// simply never encoded empty — so a zero here only appears in hostile
// input) and to an empty non-nil slice otherwise (matching what
// encoding/json produces for a present-but-empty base64 string).
func (r *binReader) bytes(emptyNil bool) ([]byte, error) {
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		if emptyNil {
			return nil, nil
		}
		return []byte{}, nil
	}
	out := make([]byte, n)
	copy(out, r.buf[r.pos:r.pos+n])
	r.pos += n
	return out, nil
}

func (r *binReader) str() (string, error) {
	n, err := r.count()
	if err != nil {
		return "", err
	}
	s := string(r.buf[r.pos : r.pos+n])
	r.pos += n
	return s, nil
}

func (r *binReader) f64() (float64, error) {
	if r.remaining() < 8 {
		return 0, errBinaryTruncated
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.pos:]))
	r.pos += 8
	return v, nil
}

// --- sub-struct encodings ---------------------------------------------

func appendProfile(b []byte, p *profile.Profile) []byte {
	b = binary.AppendUvarint(b, uint64(len(p.Levels)))
	for _, lv := range p.Levels {
		b = binary.AppendVarint(b, int64(lv.K))
		b = binary.AppendVarint(b, int64(lv.L))
		b = appendF64(b, lv.SigmaS)
	}
	return b
}

func (r *binReader) profile() (*profile.Profile, error) {
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	p := &profile.Profile{}
	if n == 0 {
		return p, nil
	}
	p.Levels = make([]profile.Level, n)
	for i := range p.Levels {
		if p.Levels[i].K, err = r.vint(); err != nil {
			return nil, err
		}
		if p.Levels[i].L, err = r.vint(); err != nil {
			return nil, err
		}
		if p.Levels[i].SigmaS, err = r.f64(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func appendRegion(b []byte, cr *cloak.CloakedRegion) []byte {
	b = binary.AppendVarint(b, int64(cr.Algorithm))
	b = binary.AppendUvarint(b, uint64(len(cr.Segments)))
	prev := int64(0)
	for i, s := range cr.Segments {
		if i == 0 {
			prev = int64(s)
			b = binary.AppendVarint(b, prev)
			continue
		}
		b = binary.AppendVarint(b, int64(s)-prev)
		prev = int64(s)
	}
	b = binary.AppendUvarint(b, uint64(len(cr.Levels)))
	for i := range cr.Levels {
		m := &cr.Levels[i]
		b = binary.AppendVarint(b, int64(m.Steps))
		b = binary.AppendUvarint(b, uint64(m.Salt))
		b = appendF64(b, m.SigmaS)
		b = binary.AppendUvarint(b, uint64(len(m.Tags)))
		for _, t := range m.Tags {
			b = binary.AppendUvarint(b, uint64(len(t)))
			b = append(b, t...)
		}
	}
	return b
}

func (r *binReader) region() (*cloak.CloakedRegion, error) {
	alg, err := r.vint()
	if err != nil {
		return nil, err
	}
	cr := &cloak.CloakedRegion{Algorithm: cloak.Algorithm(alg)}
	nseg, err := r.count()
	if err != nil {
		return nil, err
	}
	if nseg > 0 {
		cr.Segments = make([]roadnet.SegmentID, nseg)
		prev := int64(0)
		for i := range cr.Segments {
			d, err := r.varint()
			if err != nil {
				return nil, err
			}
			prev += d
			cr.Segments[i] = roadnet.SegmentID(prev)
		}
	}
	nlvl, err := r.count()
	if err != nil {
		return nil, err
	}
	if nlvl > 0 {
		cr.Levels = make([]cloak.LevelMeta, nlvl)
		for i := range cr.Levels {
			m := &cr.Levels[i]
			if m.Steps, err = r.vint(); err != nil {
				return nil, err
			}
			salt, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			m.Salt = uint32(salt)
			if m.SigmaS, err = r.f64(); err != nil {
				return nil, err
			}
			ntags, err := r.count()
			if err != nil {
				return nil, err
			}
			if ntags > 0 {
				// A level's tags land in one shared backing array: pre-scan
				// the lengths (validating the frame), then carve full-capacity
				// subslices out of a single allocation instead of one per tag.
				m.Tags = make([][]byte, ntags)
				save := r.pos
				total := 0
				for j := 0; j < ntags; j++ {
					n, err := r.count()
					if err != nil {
						return nil, err
					}
					total += n
					r.pos += n
				}
				r.pos = save
				backing := make([]byte, 0, total)
				for j := range m.Tags {
					n, err := r.count()
					if err != nil {
						return nil, err
					}
					start := len(backing)
					backing = append(backing, r.buf[r.pos:r.pos+n]...)
					r.pos += n
					// JSON decodes a present tag as a non-nil byte slice even
					// when empty; match it (a subslice of the non-nil backing
					// is itself non-nil).
					m.Tags[j] = backing[start : start+n : start+n]
				}
			}
		}
	}
	return cr, nil
}

func appendReplStatus(b []byte, rs *ReplStatus) []byte {
	b = binary.AppendUvarint(b, uint64(len(rs.Role)))
	b = append(b, rs.Role...)
	b = binary.AppendUvarint(b, rs.Epoch)
	b = binary.AppendUvarint(b, rs.Watermark)
	b = binary.AppendUvarint(b, uint64(len(rs.LeaderAddr)))
	b = append(b, rs.LeaderAddr...)
	if rs.LagFrames != nil {
		b = append(b, 1)
		b = binary.AppendVarint(b, *rs.LagFrames)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(rs.Followers)))
	for i := range rs.Followers {
		f := &rs.Followers[i]
		b = binary.AppendUvarint(b, uint64(len(f.Addr)))
		b = append(b, f.Addr...)
		b = binary.AppendVarint(b, f.Behind)
		b = binary.AppendVarint(b, f.LastAckMillis)
	}
	return b
}

func (r *binReader) replStatus() (*ReplStatus, error) {
	rs := &ReplStatus{}
	var err error
	if rs.Role, err = r.str(); err != nil {
		return nil, err
	}
	if rs.Epoch, err = r.uvarint(); err != nil {
		return nil, err
	}
	if rs.Watermark, err = r.uvarint(); err != nil {
		return nil, err
	}
	if rs.LeaderAddr, err = r.str(); err != nil {
		return nil, err
	}
	if r.remaining() < 1 {
		return nil, errBinaryTruncated
	}
	hasLag := r.buf[r.pos]
	r.pos++
	if hasLag != 0 {
		lag, err := r.varint()
		if err != nil {
			return nil, err
		}
		rs.LagFrames = &lag
	}
	nf, err := r.count()
	if err != nil {
		return nil, err
	}
	if nf > 0 {
		rs.Followers = make([]FollowerStatus, nf)
		for i := range rs.Followers {
			f := &rs.Followers[i]
			if f.Addr, err = r.str(); err != nil {
				return nil, err
			}
			if f.Behind, err = r.varint(); err != nil {
				return nil, err
			}
			if f.LastAckMillis, err = r.varint(); err != nil {
				return nil, err
			}
		}
	}
	return rs, nil
}

// --- Request ----------------------------------------------------------

// appendRequest appends req's tagged fields plus the end tag to b.
func appendRequest(b []byte, req *Request) []byte {
	if req.V != 0 {
		b = appendTagVarint(b, reqTagV, int64(req.V))
	}
	if req.Op != "" {
		b = appendTagString(b, reqTagOp, string(req.Op))
	}
	if req.UserSegment != 0 {
		b = appendTagVarint(b, reqTagUserSegment, int64(req.UserSegment))
	}
	if req.Profile != nil {
		b = binary.AppendUvarint(b, reqTagProfile)
		b = appendProfile(b, req.Profile)
	}
	if req.Algorithm != "" {
		b = appendTagString(b, reqTagAlgorithm, req.Algorithm)
	}
	if req.TTLMillis != 0 {
		b = appendTagVarint(b, reqTagTTLMillis, req.TTLMillis)
	}
	if req.RegionID != "" {
		b = appendTagString(b, reqTagRegionID, req.RegionID)
	}
	if req.Requester != "" {
		b = appendTagString(b, reqTagRequester, req.Requester)
	}
	if req.ToLevel != 0 {
		b = appendTagVarint(b, reqTagToLevel, int64(req.ToLevel))
	}
	if req.Epoch != 0 {
		b = appendTagUvarint(b, reqTagEpoch, req.Epoch)
	}
	if req.WasLeader {
		b = appendTagUvarint(b, reqTagWasLeader, 1)
	}
	if req.Follower != "" {
		b = appendTagString(b, reqTagFollower, req.Follower)
	}
	if req.Watermark != 0 {
		b = appendTagUvarint(b, reqTagWatermark, req.Watermark)
	}
	if req.Since != "" {
		b = appendTagString(b, reqTagSince, req.Since)
	}
	if req.Tenant != "" {
		b = appendTagString(b, reqTagTenant, req.Tenant)
	}
	if req.Token != "" {
		b = appendTagString(b, reqTagToken, req.Token)
	}
	return append(b, reqTagEnd)
}

// decodeRequest decodes one frame payload into req, rejecting unknown
// tags and trailing bytes.
func decodeRequest(payload []byte, req *Request) error {
	r := &binReader{buf: payload}
	if err := r.request(req); err != nil {
		return err
	}
	if r.remaining() != 0 {
		return fmt.Errorf("anonymizer: %d trailing bytes after binary request", r.remaining())
	}
	return nil
}

func (r *binReader) request(req *Request) error {
	for {
		tag, err := r.uvarint()
		if err != nil {
			return err
		}
		switch tag {
		case reqTagEnd:
			return nil
		case reqTagV:
			req.V, err = r.vint()
		case reqTagOp:
			var s string
			s, err = r.str()
			req.Op = Op(s)
		case reqTagUserSegment:
			var v int64
			v, err = r.varint()
			req.UserSegment = roadnet.SegmentID(v)
		case reqTagProfile:
			req.Profile, err = r.profile()
		case reqTagAlgorithm:
			req.Algorithm, err = r.str()
		case reqTagTTLMillis:
			req.TTLMillis, err = r.varint()
		case reqTagRegionID:
			req.RegionID, err = r.str()
		case reqTagRequester:
			req.Requester, err = r.str()
		case reqTagToLevel:
			req.ToLevel, err = r.vint()
		case reqTagEpoch:
			req.Epoch, err = r.uvarint()
		case reqTagWasLeader:
			var v uint64
			v, err = r.uvarint()
			req.WasLeader = v != 0
		case reqTagFollower:
			req.Follower, err = r.str()
		case reqTagWatermark:
			req.Watermark, err = r.uvarint()
		case reqTagSince:
			req.Since, err = r.str()
		case reqTagTenant:
			req.Tenant, err = r.str()
		case reqTagToken:
			req.Token, err = r.str()
		default:
			return fmt.Errorf("anonymizer: unknown binary request tag %d", tag)
		}
		if err != nil {
			return err
		}
	}
}

// --- Response ---------------------------------------------------------

// appendResponse appends resp's tagged fields plus the end tag to b.
func appendResponse(b []byte, resp *Response) []byte {
	if resp.V != 0 {
		b = appendTagVarint(b, respTagV, int64(resp.V))
	}
	if resp.OK {
		b = appendTagUvarint(b, respTagOK, 1)
	}
	if resp.Error != "" {
		b = appendTagString(b, respTagError, resp.Error)
	}
	if resp.Code != "" {
		b = appendTagString(b, respTagCode, resp.Code)
	}
	if resp.Tenant != "" {
		b = appendTagString(b, respTagTenant, resp.Tenant)
	}
	if len(resp.Caps) > 0 {
		b = binary.AppendUvarint(b, respTagCaps)
		b = binary.AppendUvarint(b, uint64(len(resp.Caps)))
		for _, c := range resp.Caps {
			b = binary.AppendUvarint(b, uint64(len(c)))
			b = append(b, c...)
		}
	}
	if resp.RegionID != "" {
		b = appendTagString(b, respTagRegionID, resp.RegionID)
	}
	if resp.Region != nil {
		b = binary.AppendUvarint(b, respTagRegion)
		b = appendRegion(b, resp.Region)
	}
	if resp.Levels != 0 {
		b = appendTagVarint(b, respTagLevels, int64(resp.Levels))
	}
	if resp.ExpiresAtMillis != 0 {
		b = appendTagVarint(b, respTagExpiresAtMillis, resp.ExpiresAtMillis)
	}
	if resp.Level != nil {
		b = appendTagVarint(b, respTagLevel, int64(*resp.Level))
	}
	if len(resp.Keys) > 0 {
		b = binary.AppendUvarint(b, respTagKeys)
		b = binary.AppendUvarint(b, uint64(len(resp.Keys)))
		levels := make([]int, 0, len(resp.Keys))
		for lv := range resp.Keys {
			levels = append(levels, lv)
		}
		sort.Ints(levels)
		for _, lv := range levels {
			b = binary.AppendVarint(b, int64(lv))
			k := resp.Keys[lv]
			b = binary.AppendUvarint(b, uint64(len(k)))
			b = append(b, k...)
		}
	}
	if len(resp.Archive) > 0 {
		b = appendTagBytes(b, respTagArchive, resp.Archive)
	}
	if resp.Leader != "" {
		b = appendTagString(b, respTagLeader, resp.Leader)
	}
	if resp.Epoch != 0 {
		b = appendTagUvarint(b, respTagEpoch, resp.Epoch)
	}
	if resp.Watermark != 0 {
		b = appendTagUvarint(b, respTagWatermark, resp.Watermark)
	}
	if resp.Repl != nil {
		b = binary.AppendUvarint(b, respTagRepl)
		b = appendReplStatus(b, resp.Repl)
	}
	return append(b, respTagEnd)
}

// decodeResponse decodes one frame payload into resp, rejecting unknown
// tags and trailing bytes.
func decodeResponse(payload []byte, resp *Response) error {
	r := &binReader{buf: payload}
	if err := r.response(resp); err != nil {
		return err
	}
	if r.remaining() != 0 {
		return fmt.Errorf("anonymizer: %d trailing bytes after binary response", r.remaining())
	}
	return nil
}

func (r *binReader) response(resp *Response) error {
	for {
		tag, err := r.uvarint()
		if err != nil {
			return err
		}
		switch tag {
		case respTagEnd:
			return nil
		case respTagV:
			resp.V, err = r.vint()
		case respTagOK:
			var v uint64
			v, err = r.uvarint()
			resp.OK = v != 0
		case respTagError:
			resp.Error, err = r.str()
		case respTagCode:
			resp.Code, err = r.str()
		case respTagTenant:
			resp.Tenant, err = r.str()
		case respTagCaps:
			var n int
			if n, err = r.count(); err == nil && n > 0 {
				resp.Caps = make([]string, n)
				for i := range resp.Caps {
					if resp.Caps[i], err = r.str(); err != nil {
						break
					}
				}
			}
		case respTagRegionID:
			resp.RegionID, err = r.str()
		case respTagRegion:
			resp.Region, err = r.region()
		case respTagLevels:
			resp.Levels, err = r.vint()
		case respTagExpiresAtMillis:
			resp.ExpiresAtMillis, err = r.varint()
		case respTagLevel:
			var v int
			if v, err = r.vint(); err == nil {
				resp.Level = &v
			}
		case respTagKeys:
			var n int
			if n, err = r.count(); err == nil && n > 0 {
				resp.Keys = make(map[int]string, n)
				for i := 0; i < n; i++ {
					var lv int
					var k string
					if lv, err = r.vint(); err != nil {
						break
					}
					if k, err = r.str(); err != nil {
						break
					}
					resp.Keys[lv] = k
				}
			}
		case respTagArchive:
			resp.Archive, err = r.bytes(true)
		case respTagLeader:
			resp.Leader, err = r.str()
		case respTagEpoch:
			resp.Epoch, err = r.uvarint()
		case respTagWatermark:
			resp.Watermark, err = r.uvarint()
		case respTagRepl:
			resp.Repl, err = r.replStatus()
		default:
			return fmt.Errorf("anonymizer: unknown binary response tag %d", tag)
		}
		if err != nil {
			return err
		}
	}
}
