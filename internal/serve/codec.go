package serve

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// This file is the allocation-free frame codec for the steady-state
// serving path. AppendFrame renders a frame into a caller-owned buffer
// with output byte-identical to encoding/json (struct field order,
// omitempty, string quoting); decodeFrameFast parses the canonical shape
// AppendFrame emits back into a reused Frame. Both bail to encoding/json
// on anything unusual — escaped or non-ASCII strings, exotic number
// forms, unknown or duplicate keys, stats payloads — so wire behavior is
// defined by encoding/json and the fast paths are pure optimizations.
// FuzzDecodeFrame pins the equivalence.

// reset clears f for reuse, keeping slice capacities and parking any
// Hints allocation for the next decode.
func (f *Frame) reset() {
	spare := f.spareHints
	if f.Hints != nil {
		spare = f.Hints
	}
	pf, sh := f.Prefetch[:0], f.Shadow[:0]
	accs, res := f.Accesses[:0], f.Results[:0]
	*f = Frame{Prefetch: pf, Shadow: sh, Accesses: accs, Results: res, spareHints: spare}
}

// AppendFrame validates f and appends its newline-terminated wire line to
// dst, returning the extended buffer. The steady-state path appends into
// a reused buffer with zero allocations; output is byte-identical to
// encoding/json's form of the frame.
func AppendFrame(dst []byte, f *Frame) ([]byte, error) {
	if err := f.Validate(); err != nil {
		return dst, err
	}
	mark := len(dst)
	out, ok := appendFrameFast(dst, f)
	if !ok {
		b, err := json.Marshal(f)
		if err != nil {
			return dst[:mark], fmt.Errorf("serve: encoding frame: %w", err)
		}
		out = append(dst[:mark], b...)
	}
	if len(out)-mark > MaxFrameBytes {
		n := len(out) - mark
		return dst[:mark], fmt.Errorf("serve: encoded frame of %d bytes exceeds limit %d", n, MaxFrameBytes)
	}
	return append(out, '\n'), nil
}

// appendFrameFast renders f in encoding/json's exact output form, or
// reports false if any string needs escaping (the caller then falls back
// to json.Marshal).
func appendFrameFast(dst []byte, f *Frame) ([]byte, bool) {
	// Introspection payloads (explain requests/replies, stats with a
	// learner-health snapshot) are rare and structurally deep: leave them
	// to encoding/json rather than mirror the nested schema here.
	if f.TopK != 0 || f.Explain != nil || (f.Stats != nil && f.Stats.Learner != nil) {
		return dst, false
	}
	var ok bool
	dst = append(dst, `{"type":`...)
	if dst, ok = appendString(dst, string(f.Type)); !ok {
		return dst, false
	}
	if f.Version != 0 {
		dst = append(dst, `,"v":`...)
		dst = strconv.AppendInt(dst, int64(f.Version), 10)
	}
	if f.Session != "" {
		dst = append(dst, `,"session":`...)
		if dst, ok = appendString(dst, f.Session); !ok {
			return dst, false
		}
	}
	if f.Batch != 0 {
		dst = append(dst, `,"batch":`...)
		dst = strconv.AppendInt(dst, int64(f.Batch), 10)
	}
	if f.Seq != 0 {
		dst = append(dst, `,"seq":`...)
		dst = strconv.AppendUint(dst, f.Seq, 10)
	}
	dst = appendAccessFields(dst, f.PC, f.Addr, f.Value, f.Reg, f.BranchHist, f.Store)
	if f.Hints != nil {
		dst = append(dst, `,"hints":`...)
		dst = appendHints(dst, f.Hints)
	}
	if len(f.Prefetch) > 0 {
		dst = append(dst, `,"prefetch":`...)
		dst = appendUints(dst, f.Prefetch)
	}
	if len(f.Shadow) > 0 {
		dst = append(dst, `,"shadow":`...)
		dst = appendUints(dst, f.Shadow)
	}
	if f.Degraded {
		dst = append(dst, `,"degraded":true`...)
	}
	if f.Replayed {
		dst = append(dst, `,"replayed":true`...)
	}
	if len(f.Accesses) > 0 {
		dst = append(dst, `,"accesses":[`...)
		for i := range f.Accesses {
			a := &f.Accesses[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"seq":`...)
			dst = strconv.AppendUint(dst, a.Seq, 10)
			dst = appendAccessFields(dst, a.PC, a.Addr, a.Value, a.Reg, a.BranchHist, a.Store)
			if a.Hints != nil {
				dst = append(dst, `,"hints":`...)
				dst = appendHints(dst, a.Hints)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if len(f.Results) > 0 {
		dst = append(dst, `,"results":[`...)
		for i := range f.Results {
			r := &f.Results[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"seq":`...)
			dst = strconv.AppendUint(dst, r.Seq, 10)
			if len(r.Prefetch) > 0 {
				dst = append(dst, `,"prefetch":`...)
				dst = appendUints(dst, r.Prefetch)
			}
			if len(r.Shadow) > 0 {
				dst = append(dst, `,"shadow":`...)
				dst = appendUints(dst, r.Shadow)
			}
			if r.Degraded {
				dst = append(dst, `,"degraded":true`...)
			}
			if r.Replayed {
				dst = append(dst, `,"replayed":true`...)
			}
			if r.Code != "" {
				dst = append(dst, `,"code":`...)
				if dst, ok = appendString(dst, r.Code); !ok {
					return dst, false
				}
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if f.LastSeq != 0 {
		dst = append(dst, `,"last_seq":`...)
		dst = strconv.AppendUint(dst, f.LastSeq, 10)
	}
	if f.Resumed {
		dst = append(dst, `,"resumed":true`...)
	}
	if f.RetryMs != 0 {
		dst = append(dst, `,"retry_ms":`...)
		dst = strconv.AppendInt(dst, int64(f.RetryMs), 10)
	}
	if f.Stats != nil {
		s := f.Stats
		dst = append(dst, `,"stats":{"id":`...)
		if dst, ok = appendString(dst, s.ID); !ok {
			return dst, false
		}
		dst = append(dst, `,"decisions":`...)
		dst = strconv.AppendUint(dst, s.Decisions, 10)
		dst = append(dst, `,"degraded":`...)
		dst = strconv.AppendUint(dst, s.Degraded, 10)
		dst = append(dst, `,"replayed":`...)
		dst = strconv.AppendUint(dst, s.Replayed, 10)
		dst = append(dst, `,"inbox_high_water":`...)
		dst = strconv.AppendInt(dst, int64(s.InboxHighWater), 10)
		dst = append(dst, `,"last_seq":`...)
		dst = strconv.AppendUint(dst, s.LastSeq, 10)
		dst = append(dst, `,"attached":`...)
		dst = strconv.AppendBool(dst, s.Attached)
		dst = append(dst, '}')
	}
	if f.Code != "" {
		dst = append(dst, `,"code":`...)
		if dst, ok = appendString(dst, f.Code); !ok {
			return dst, false
		}
	}
	if f.Msg != "" {
		dst = append(dst, `,"msg":`...)
		if dst, ok = appendString(dst, f.Msg); !ok {
			return dst, false
		}
	}
	return append(dst, '}'), true
}

// appendAccessFields emits the shared access payload fields (all
// omitempty) for both Frame and BatchAccess.
func appendAccessFields(dst []byte, pc, addr, value, reg uint64, bh uint16, store bool) []byte {
	if pc != 0 {
		dst = append(dst, `,"pc":`...)
		dst = strconv.AppendUint(dst, pc, 10)
	}
	if addr != 0 {
		dst = append(dst, `,"addr":`...)
		dst = strconv.AppendUint(dst, addr, 10)
	}
	if value != 0 {
		dst = append(dst, `,"value":`...)
		dst = strconv.AppendUint(dst, value, 10)
	}
	if reg != 0 {
		dst = append(dst, `,"reg":`...)
		dst = strconv.AppendUint(dst, reg, 10)
	}
	if bh != 0 {
		dst = append(dst, `,"branch_hist":`...)
		dst = strconv.AppendUint(dst, uint64(bh), 10)
	}
	if store {
		dst = append(dst, `,"store":true`...)
	}
	return dst
}

// appendHints emits a Hints object (its fields carry no omitempty).
func appendHints(dst []byte, h *Hints) []byte {
	dst = append(dst, `{"valid":`...)
	dst = strconv.AppendBool(dst, h.Valid)
	dst = append(dst, `,"type_id":`...)
	dst = strconv.AppendUint(dst, uint64(h.TypeID), 10)
	dst = append(dst, `,"link_offset":`...)
	dst = strconv.AppendUint(dst, uint64(h.LinkOffset), 10)
	dst = append(dst, `,"ref_form":`...)
	dst = strconv.AppendUint(dst, uint64(h.RefForm), 10)
	return append(dst, '}')
}

// appendUints emits a JSON array of unsigned integers.
func appendUints(dst []byte, vs []uint64) []byte {
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, v, 10)
	}
	return append(dst, ']')
}

// appendString quotes s if it needs no escaping under encoding/json's
// rules (printable ASCII minus the HTML-escaped set); otherwise it
// reports false and the whole frame falls back to json.Marshal.
func appendString(dst []byte, s string) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return dst, false
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"'), true
}

// Key bitmask indices for duplicate-key detection; a repeated key at any
// object level bails to encoding/json (which has merge semantics the fast
// path does not replicate).
const (
	keyType = 1 << iota
	keyV
	keySession
	keyBatch
	keySeq
	keyPC
	keyAddr
	keyValue
	keyReg
	keyBranchHist
	keyStore
	keyHints
	keyPrefetch
	keyShadow
	keyDegraded
	keyReplayed
	keyAccesses
	keyResults
	keyLastSeq
	keyResumed
	keyRetryMs
	keyCode
	keyMsg
	keyValid
	keyTypeID
	keyLinkOffset
	keyRefForm
)

type frameParser struct {
	b []byte
	i int
}

func (p *frameParser) skipWS() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

func (p *frameParser) expect(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

func (p *frameParser) peek() byte {
	if p.i < len(p.b) {
		return p.b[p.i]
	}
	return 0
}

// parseString returns the raw bytes of a quoted string containing only
// unescaped printable ASCII; anything else fails to the fallback.
func (p *frameParser) parseString() ([]byte, bool) {
	if !p.expect('"') {
		return nil, false
	}
	start := p.i
	for p.i < len(p.b) {
		c := p.b[p.i]
		if c == '"' {
			s := p.b[start:p.i]
			p.i++
			return s, true
		}
		if c < 0x20 || c >= 0x80 || c == '\\' {
			return nil, false
		}
		p.i++
	}
	return nil, false
}

// parseUint parses a plain non-negative integer literal (no sign, no
// leading zeros, no fraction/exponent, no overflow).
func (p *frameParser) parseUint() (uint64, bool) {
	start := p.i
	var v uint64
	for p.i < len(p.b) {
		c := p.b[p.i]
		if c < '0' || c > '9' {
			break
		}
		d := uint64(c - '0')
		if v > (1<<64-1)/10 || (v == (1<<64-1)/10 && d > (1<<64-1)%10) {
			return 0, false
		}
		v = v*10 + d
		p.i++
	}
	n := p.i - start
	if n == 0 || (n > 1 && p.b[start] == '0') {
		return 0, false
	}
	return v, true
}

func (p *frameParser) parseUint16() (uint16, bool) {
	v, ok := p.parseUint()
	if !ok || v > 1<<16-1 {
		return 0, false
	}
	return uint16(v), true
}

func (p *frameParser) parseBool() (bool, bool) {
	if len(p.b)-p.i >= 4 && string(p.b[p.i:p.i+4]) == "true" {
		p.i += 4
		return true, true
	}
	if len(p.b)-p.i >= 5 && string(p.b[p.i:p.i+5]) == "false" {
		p.i += 5
		return false, true
	}
	return false, false
}

// parseUints parses a JSON array of plain integers into dst (reused).
func (p *frameParser) parseUints(dst []uint64) ([]uint64, bool) {
	if !p.expect('[') {
		return dst, false
	}
	p.skipWS()
	if p.expect(']') {
		return dst, true
	}
	for {
		v, ok := p.parseUint()
		if !ok {
			return dst, false
		}
		dst = append(dst, v)
		p.skipWS()
		if p.expect(']') {
			return dst, true
		}
		if !p.expect(',') {
			return dst, false
		}
		p.skipWS()
	}
}

// parseHints parses a Hints object into h (zeroed first).
func (p *frameParser) parseHints(h *Hints) bool {
	*h = Hints{}
	if !p.expect('{') {
		return false
	}
	p.skipWS()
	if p.expect('}') {
		return true
	}
	var seen uint32
	for {
		key, ok := p.parseString()
		if !ok {
			return false
		}
		p.skipWS()
		if !p.expect(':') {
			return false
		}
		p.skipWS()
		var bit uint32
		switch string(key) {
		case "valid":
			bit = keyValid
			if h.Valid, ok = p.parseBool(); !ok {
				return false
			}
		case "type_id":
			bit = keyTypeID
			if h.TypeID, ok = p.parseUint16(); !ok {
				return false
			}
		case "link_offset":
			bit = keyLinkOffset
			if h.LinkOffset, ok = p.parseUint16(); !ok {
				return false
			}
		case "ref_form":
			bit = keyRefForm
			v, ok := p.parseUint()
			if !ok || v > 1<<8-1 {
				return false
			}
			h.RefForm = uint8(v)
		default:
			return false
		}
		if seen&bit != 0 {
			return false
		}
		seen |= bit
		p.skipWS()
		if p.expect('}') {
			return true
		}
		if !p.expect(',') {
			return false
		}
		p.skipWS()
	}
}

// growAccess extends s by one zeroed element, recycling capacity and any
// parked Hints allocation.
func growAccess(s []BatchAccess) ([]BatchAccess, *BatchAccess) {
	if len(s) < cap(s) {
		s = s[:len(s)+1]
		a := &s[len(s)-1]
		spare := a.spareHints
		if a.Hints != nil {
			spare = a.Hints
		}
		*a = BatchAccess{spareHints: spare}
		return s, a
	}
	s = append(s, BatchAccess{})
	return s, &s[len(s)-1]
}

// growResult extends s by one zeroed element, recycling slice capacity.
func growResult(s []BatchDecision) ([]BatchDecision, *BatchDecision) {
	if len(s) < cap(s) {
		s = s[:len(s)+1]
		r := &s[len(s)-1]
		*r = BatchDecision{Prefetch: r.Prefetch[:0], Shadow: r.Shadow[:0]}
		return s, r
	}
	s = append(s, BatchDecision{})
	return s, &s[len(s)-1]
}

// parseAccess parses one BatchAccess object into a (already zeroed by
// growAccess).
func (p *frameParser) parseAccess(a *BatchAccess) bool {
	if !p.expect('{') {
		return false
	}
	p.skipWS()
	if p.expect('}') {
		return true
	}
	var seen uint32
	for {
		key, ok := p.parseString()
		if !ok {
			return false
		}
		p.skipWS()
		if !p.expect(':') {
			return false
		}
		p.skipWS()
		var bit uint32
		switch string(key) {
		case "seq":
			bit = keySeq
			if a.Seq, ok = p.parseUint(); !ok {
				return false
			}
		case "pc":
			bit = keyPC
			if a.PC, ok = p.parseUint(); !ok {
				return false
			}
		case "addr":
			bit = keyAddr
			if a.Addr, ok = p.parseUint(); !ok {
				return false
			}
		case "value":
			bit = keyValue
			if a.Value, ok = p.parseUint(); !ok {
				return false
			}
		case "reg":
			bit = keyReg
			if a.Reg, ok = p.parseUint(); !ok {
				return false
			}
		case "branch_hist":
			bit = keyBranchHist
			if a.BranchHist, ok = p.parseUint16(); !ok {
				return false
			}
		case "store":
			bit = keyStore
			if a.Store, ok = p.parseBool(); !ok {
				return false
			}
		case "hints":
			bit = keyHints
			if a.Hints == nil {
				if a.spareHints != nil {
					a.Hints, a.spareHints = a.spareHints, nil
				} else {
					a.Hints = new(Hints)
				}
			}
			if !p.parseHints(a.Hints) {
				return false
			}
		default:
			return false
		}
		if seen&bit != 0 {
			return false
		}
		seen |= bit
		p.skipWS()
		if p.expect('}') {
			return true
		}
		if !p.expect(',') {
			return false
		}
		p.skipWS()
	}
}

// parseResult parses one BatchDecision object into r (already zeroed by
// growResult).
func (p *frameParser) parseResult(r *BatchDecision) bool {
	if !p.expect('{') {
		return false
	}
	p.skipWS()
	if p.expect('}') {
		return true
	}
	var seen uint32
	for {
		key, ok := p.parseString()
		if !ok {
			return false
		}
		p.skipWS()
		if !p.expect(':') {
			return false
		}
		p.skipWS()
		var bit uint32
		switch string(key) {
		case "seq":
			bit = keySeq
			if r.Seq, ok = p.parseUint(); !ok {
				return false
			}
		case "prefetch":
			bit = keyPrefetch
			if r.Prefetch, ok = p.parseUints(r.Prefetch); !ok {
				return false
			}
		case "shadow":
			bit = keyShadow
			if r.Shadow, ok = p.parseUints(r.Shadow); !ok {
				return false
			}
		case "degraded":
			bit = keyDegraded
			if r.Degraded, ok = p.parseBool(); !ok {
				return false
			}
		case "replayed":
			bit = keyReplayed
			if r.Replayed, ok = p.parseBool(); !ok {
				return false
			}
		case "code":
			bit = keyCode
			s, ok := p.parseString()
			if !ok {
				return false
			}
			r.Code = internCode(s)
		default:
			return false
		}
		if seen&bit != 0 {
			return false
		}
		seen |= bit
		p.skipWS()
		if p.expect('}') {
			return true
		}
		if !p.expect(',') {
			return false
		}
		p.skipWS()
	}
}

// internFrameType maps a known frame-type literal to its constant
// (avoiding a string allocation); unknown types fail to the fallback,
// where Validate rejects them with the same error either way.
func internFrameType(b []byte) (FrameType, bool) {
	switch string(b) {
	case string(FrameHello):
		return FrameHello, true
	case string(FrameWelcome):
		return FrameWelcome, true
	case string(FrameAccess):
		return FrameAccess, true
	case string(FrameDecision):
		return FrameDecision, true
	case string(FrameBatch):
		return FrameBatch, true
	case string(FrameBusy):
		return FrameBusy, true
	case string(FrameError):
		return FrameError, true
	case string(FramePing):
		return FramePing, true
	case string(FramePong):
		return FramePong, true
	case string(FrameStats):
		return FrameStats, true
	case string(FrameExplain):
		return FrameExplain, true
	case string(FrameBye):
		return FrameBye, true
	}
	return "", false
}

// internCode maps known error codes to their constants to avoid
// allocating on the steady-state batch path.
func internCode(b []byte) string {
	switch string(b) {
	case CodeBadFrame:
		return CodeBadFrame
	case CodeProtocol:
		return CodeProtocol
	case CodeStaleSeq:
		return CodeStaleSeq
	case CodeShuttingDown:
		return CodeShuttingDown
	case CodeSessionClosed:
		return CodeSessionClosed
	}
	return string(b)
}

// decodeFrameFast parses the canonical frame shape into f (reset first),
// reporting false on anything it cannot handle exactly as encoding/json
// would; the caller then reparses with encoding/json from a zero Frame.
func decodeFrameFast(line []byte, f *Frame) bool {
	f.reset()
	p := frameParser{b: line}
	p.skipWS()
	if !p.expect('{') {
		return false
	}
	p.skipWS()
	if p.expect('}') {
		p.skipWS()
		return p.i == len(p.b)
	}
	var seen uint32
	for {
		key, ok := p.parseString()
		if !ok {
			return false
		}
		p.skipWS()
		if !p.expect(':') {
			return false
		}
		p.skipWS()
		var bit uint32
		switch string(key) {
		case "type":
			bit = keyType
			s, ok := p.parseString()
			if !ok {
				return false
			}
			if f.Type, ok = internFrameType(s); !ok {
				return false
			}
		case "v":
			bit = keyV
			v, ok := p.parseUint()
			if !ok || v > 1<<31-1 {
				return false
			}
			f.Version = int(v)
		case "session":
			bit = keySession
			s, ok := p.parseString()
			if !ok {
				return false
			}
			f.Session = string(s)
		case "batch":
			bit = keyBatch
			v, ok := p.parseUint()
			if !ok || v > 1<<31-1 {
				return false
			}
			f.Batch = int(v)
		case "seq":
			bit = keySeq
			if f.Seq, ok = p.parseUint(); !ok {
				return false
			}
		case "pc":
			bit = keyPC
			if f.PC, ok = p.parseUint(); !ok {
				return false
			}
		case "addr":
			bit = keyAddr
			if f.Addr, ok = p.parseUint(); !ok {
				return false
			}
		case "value":
			bit = keyValue
			if f.Value, ok = p.parseUint(); !ok {
				return false
			}
		case "reg":
			bit = keyReg
			if f.Reg, ok = p.parseUint(); !ok {
				return false
			}
		case "branch_hist":
			bit = keyBranchHist
			if f.BranchHist, ok = p.parseUint16(); !ok {
				return false
			}
		case "store":
			bit = keyStore
			if f.Store, ok = p.parseBool(); !ok {
				return false
			}
		case "hints":
			bit = keyHints
			if f.Hints == nil {
				if f.spareHints != nil {
					f.Hints, f.spareHints = f.spareHints, nil
				} else {
					f.Hints = new(Hints)
				}
			}
			if !p.parseHints(f.Hints) {
				return false
			}
		case "prefetch":
			bit = keyPrefetch
			if f.Prefetch, ok = p.parseUints(f.Prefetch); !ok {
				return false
			}
		case "shadow":
			bit = keyShadow
			if f.Shadow, ok = p.parseUints(f.Shadow); !ok {
				return false
			}
		case "degraded":
			bit = keyDegraded
			if f.Degraded, ok = p.parseBool(); !ok {
				return false
			}
		case "replayed":
			bit = keyReplayed
			if f.Replayed, ok = p.parseBool(); !ok {
				return false
			}
		case "accesses":
			bit = keyAccesses
			if !p.expect('[') {
				return false
			}
			p.skipWS()
			if p.expect(']') {
				break
			}
			for {
				var a *BatchAccess
				f.Accesses, a = growAccess(f.Accesses)
				if !p.parseAccess(a) {
					return false
				}
				p.skipWS()
				if p.expect(']') {
					break
				}
				if !p.expect(',') {
					return false
				}
				p.skipWS()
				if len(f.Accesses) == MaxBatch {
					// More items than any valid batch: let the fallback
					// parse it and Validate reject it, without the fast
					// path growing an unbounded slice.
					return false
				}
			}
		case "results":
			bit = keyResults
			if !p.expect('[') {
				return false
			}
			p.skipWS()
			if p.expect(']') {
				break
			}
			for {
				var r *BatchDecision
				f.Results, r = growResult(f.Results)
				if !p.parseResult(r) {
					return false
				}
				p.skipWS()
				if p.expect(']') {
					break
				}
				if !p.expect(',') {
					return false
				}
				p.skipWS()
				if len(f.Results) == MaxBatch {
					return false
				}
			}
		case "last_seq":
			bit = keyLastSeq
			if f.LastSeq, ok = p.parseUint(); !ok {
				return false
			}
		case "resumed":
			bit = keyResumed
			if f.Resumed, ok = p.parseBool(); !ok {
				return false
			}
		case "retry_ms":
			bit = keyRetryMs
			v, ok := p.parseUint()
			if !ok || v > 1<<31-1 {
				return false
			}
			f.RetryMs = int(v)
		case "code":
			bit = keyCode
			s, ok := p.parseString()
			if !ok {
				return false
			}
			f.Code = internCode(s)
		case "msg":
			bit = keyMsg
			s, ok := p.parseString()
			if !ok {
				return false
			}
			f.Msg = string(s)
		default:
			// Unknown keys (including "stats") go to the fallback.
			return false
		}
		if seen&bit != 0 {
			return false
		}
		seen |= bit
		p.skipWS()
		if p.expect('}') {
			p.skipWS()
			return p.i == len(p.b)
		}
		if !p.expect(',') {
			return false
		}
		p.skipWS()
	}
}
