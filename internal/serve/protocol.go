// Package serve is the online serving counterpart of the offline
// simulator: a long-running daemon (cmd/prefetchd) that accepts streaming
// access records from many concurrent client sessions over the network
// and replies with prefetch decisions, with robustness as the headline —
// session lifecycle with idle expiry, bounded inboxes with explicit
// backpressure and a degraded fallback policy, learner-state
// snapshot/restore for warm starts, and per-connection failure
// containment. See DESIGN.md §14 "Serving and failure model".
package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"semloc/internal/core"
)

// ProtocolVersion is negotiated in the hello/welcome handshake.
const ProtocolVersion = 1

// MaxFrameBytes bounds one wire frame. The decoder rejects longer frames
// before parsing, so a hostile or corrupted peer cannot balloon memory.
const MaxFrameBytes = 1 << 16

// FrameType discriminates wire frames.
type FrameType string

// Wire frame types. The protocol is newline-delimited JSON (one object
// per line): trivially debuggable with netcat, trivially fuzzable, and
// framed so a chaos proxy can drop/duplicate/delay whole frames.
const (
	// FrameHello opens a connection: client → server, naming the session
	// to create or re-attach.
	FrameHello FrameType = "hello"
	// FrameWelcome acknowledges hello: server → client, carrying the
	// session's last applied sequence number so the client can dedupe.
	FrameWelcome FrameType = "welcome"
	// FrameAccess streams one demand access: client → server.
	FrameAccess FrameType = "access"
	// FrameDecision answers one access: server → client.
	FrameDecision FrameType = "decision"
	// FrameBusy is the explicit backpressure reply: the daemon's global
	// in-flight budget is exhausted; retry after RetryMs.
	FrameBusy FrameType = "busy"
	// FrameError reports a protocol or session error.
	FrameError FrameType = "error"
	// FramePing / FramePong keep an idle connection's read deadline fresh.
	FramePing FrameType = "ping"
	FramePong FrameType = "pong"
	// FrameStats requests (client → server, empty) or carries (server →
	// client, Stats set) the attached session's serving statistics.
	FrameStats FrameType = "stats"
	// FrameBye detaches cleanly: client → server.
	FrameBye FrameType = "bye"
	// FrameBatch carries up to MaxBatch accesses (client → server,
	// Accesses set) or their decisions (server → client, Results set) in
	// one frame, amortizing the per-frame JSON and syscall cost. Batching
	// is negotiated at hello (Frame.Batch); connections that did not
	// negotiate it never see this type.
	FrameBatch FrameType = "batch"
	// FrameExplain requests (client → server, optional TopK) or carries
	// (server → client, Explain set) a live learner-introspection report
	// for the attached session: the learner-health snapshot plus the
	// top-K hottest contexts with their candidate score tables.
	FrameExplain FrameType = "explain"
)

// MaxBatch bounds the number of accesses one batch frame may carry. The
// seqs inside a batch must be contiguous and ascending, so a batch is
// fully described by its first seq and length — this is what lets the
// replay ring store one span per batch and split it on partial replay.
const MaxBatch = 64

// Error codes carried by FrameError.
const (
	// CodeBadFrame: the frame failed to parse or validate.
	CodeBadFrame = "bad-frame"
	// CodeProtocol: a valid frame arrived in the wrong state (e.g. access
	// before hello).
	CodeProtocol = "protocol"
	// CodeStaleSeq: the access seq was already applied and its decision
	// has left the replay cache; the client is too far behind.
	CodeStaleSeq = "stale-seq"
	// CodeShuttingDown: the daemon is draining; reconnect later.
	CodeShuttingDown = "shutting-down"
	// CodeSessionClosed: the session expired or was closed mid-request.
	CodeSessionClosed = "session-closed"
)

// SessionStats is one session's serving statistics, carried by a stats
// frame and by the daemon's /debug/serve HTTP endpoint: how many fresh
// decisions the learner produced, how much load was shed (degraded
// fallbacks when the inbox filled), how many duplicates were replayed, and
// the inbox high-water mark (the deepest the bounded inbox ever got —
// InboxHighWater at the configured depth means the session brushed its
// degraded threshold).
type SessionStats struct {
	ID             string `json:"id"`
	Decisions      uint64 `json:"decisions"`
	Degraded       uint64 `json:"degraded"`
	Replayed       uint64 `json:"replayed"`
	InboxHighWater int    `json:"inbox_high_water"`
	LastSeq        uint64 `json:"last_seq"`
	Attached       bool   `json:"attached"`
	// Learner is the session learner's health snapshot at stats time
	// (nil when the session was already closed). Stats frames carrying it
	// take the encoding/json path — stats are rare, decisions are not.
	Learner *core.LearnerHealth `json:"learner,omitempty"`
}

// MaxExplainContexts bounds an explain request's TopK so the reply stays
// well under MaxFrameBytes whatever the learner's CST width.
const MaxExplainContexts = 64

// DefaultExplainContexts is the context count served when an explain
// request leaves TopK zero.
const DefaultExplainContexts = 8

// ExplainReport is the explain frame's payload: a live view of one
// session's learner — the health snapshot plus the hottest contexts
// (most-trialed first) with their candidate score tables.
type ExplainReport struct {
	Session  string                `json:"session"`
	Health   core.LearnerHealth    `json:"health"`
	Contexts []core.ContextExplain `json:"contexts,omitempty"`
}

// Hints mirrors trace.SWHints on the wire.
type Hints struct {
	Valid      bool   `json:"valid"`
	TypeID     uint16 `json:"type_id"`
	LinkOffset uint16 `json:"link_offset"`
	RefForm    uint8  `json:"ref_form"`
}

// BatchAccess is one access inside a batch frame. It mirrors the access
// payload of Frame, with the seq carried per item; Validate requires the
// items' seqs to be nonzero, ascending, and contiguous.
type BatchAccess struct {
	Seq        uint64 `json:"seq"`
	PC         uint64 `json:"pc,omitempty"`
	Addr       uint64 `json:"addr,omitempty"`
	Value      uint64 `json:"value,omitempty"`
	Reg        uint64 `json:"reg,omitempty"`
	BranchHist uint16 `json:"branch_hist,omitempty"`
	Store      bool   `json:"store,omitempty"`
	Hints      *Hints `json:"hints,omitempty"`

	// spareHints parks a previously allocated Hints value across
	// Frame.reset so the in-place decoder can reuse it (invisible to
	// encoding/json: unexported).
	spareHints *Hints
}

// BatchDecision answers one BatchAccess. Code, when set, marks a per-item
// serving error (CodeStaleSeq: the seq was already applied and its
// decision has left the replay ring); the rest of the batch is still
// answered.
type BatchDecision struct {
	Seq      uint64   `json:"seq"`
	Prefetch []uint64 `json:"prefetch,omitempty"`
	Shadow   []uint64 `json:"shadow,omitempty"`
	Degraded bool     `json:"degraded,omitempty"`
	Replayed bool     `json:"replayed,omitempty"`
	Code     string   `json:"code,omitempty"`
}

// Frame is one wire message. A single flat struct (rather than one type
// per frame kind) keeps the codec allocation-light and the fuzz target
// simple; Validate enforces per-type required fields.
type Frame struct {
	Type FrameType `json:"type"`

	// Hello.
	Version int    `json:"v,omitempty"`
	Session string `json:"session,omitempty"`
	// Batch negotiates batching: on hello it is the largest batch the
	// client wants to send (0: frame-at-a-time); on welcome it is the
	// granted size, min(client ask, server cap, MaxBatch). Old peers
	// ignore the field and keep speaking frame-for-frame.
	Batch int `json:"batch,omitempty"`

	// Access / decision correlation. Seq is per-session, strictly
	// increasing; the first access of a session is seq 1.
	Seq uint64 `json:"seq,omitempty"`

	// Access payload (mirrors prefetch.Access).
	PC         uint64 `json:"pc,omitempty"`
	Addr       uint64 `json:"addr,omitempty"`
	Value      uint64 `json:"value,omitempty"`
	Reg        uint64 `json:"reg,omitempty"`
	BranchHist uint16 `json:"branch_hist,omitempty"`
	Store      bool   `json:"store,omitempty"`
	Hints      *Hints `json:"hints,omitempty"`

	// Decision payload: absolute byte addresses to prefetch, and the
	// shadow (train-only) predictions for observability.
	Prefetch []uint64 `json:"prefetch,omitempty"`
	Shadow   []uint64 `json:"shadow,omitempty"`
	// Degraded marks a fallback decision produced without the learner
	// (backpressure shed); Replayed marks a decision served from the
	// replay cache after a duplicate seq.
	Degraded bool `json:"degraded,omitempty"`
	Replayed bool `json:"replayed,omitempty"`

	// Batch payload: exactly one of Accesses (client → server) or
	// Results (server → client) on a batch frame.
	Accesses []BatchAccess   `json:"accesses,omitempty"`
	Results  []BatchDecision `json:"results,omitempty"`

	// Welcome payload.
	LastSeq uint64 `json:"last_seq,omitempty"`
	// Resumed reports whether the session existed before this attach
	// (false: created fresh, possibly after an idle expiry).
	Resumed bool `json:"resumed,omitempty"`

	// Busy payload.
	RetryMs int `json:"retry_ms,omitempty"`

	// Stats payload (server → client stats frames only).
	Stats *SessionStats `json:"stats,omitempty"`

	// Explain payload: TopK on the request bounds how many hottest
	// contexts the reply carries (0: DefaultExplainContexts); Explain on
	// the reply is the session's learner-introspection report.
	TopK    int            `json:"top_k,omitempty"`
	Explain *ExplainReport `json:"explain,omitempty"`

	// Error payload.
	Code string `json:"code,omitempty"`
	Msg  string `json:"msg,omitempty"`

	// spareHints parks a previously allocated Hints value across reset so
	// the in-place decoder can reuse it (unexported: encoding/json and
	// AppendFrame both skip it).
	spareHints *Hints
}

// Access returns an access frame's payload as a batch item (sharing its
// Hints): the daemon serves every access as a batch of one.
func (f *Frame) Access() BatchAccess {
	return BatchAccess{Seq: f.Seq, PC: f.PC, Addr: f.Addr, Value: f.Value, Reg: f.Reg,
		BranchHist: f.BranchHist, Store: f.Store, Hints: f.Hints}
}

// Validate enforces the per-type frame contract.
func (f *Frame) Validate() error {
	switch f.Type {
	case FrameHello:
		if f.Version != ProtocolVersion {
			return fmt.Errorf("serve: hello version %d, want %d", f.Version, ProtocolVersion)
		}
		if f.Session == "" || len(f.Session) > 128 {
			return fmt.Errorf("serve: hello session id empty or too long")
		}
		if f.Batch < 0 {
			return fmt.Errorf("serve: hello with negative batch %d", f.Batch)
		}
	case FrameAccess:
		if f.Seq == 0 {
			return fmt.Errorf("serve: access frame without seq")
		}
	case FrameBatch:
		na, nr := len(f.Accesses), len(f.Results)
		switch {
		case na == 0 && nr == 0:
			return fmt.Errorf("serve: empty batch frame")
		case na > 0 && nr > 0:
			return fmt.Errorf("serve: batch frame with both accesses and results")
		case na > MaxBatch || nr > MaxBatch:
			return fmt.Errorf("serve: batch of %d exceeds limit %d", na+nr, MaxBatch)
		}
		for i := range f.Accesses {
			if f.Accesses[i].Seq == 0 {
				return fmt.Errorf("serve: batch access %d without seq", i)
			}
			if i > 0 && f.Accesses[i].Seq != f.Accesses[0].Seq+uint64(i) {
				return fmt.Errorf("serve: batch seqs not contiguous at index %d", i)
			}
		}
		for i := range f.Results {
			if f.Results[i].Seq == 0 {
				return fmt.Errorf("serve: batch result %d without seq", i)
			}
			if i > 0 && f.Results[i].Seq != f.Results[0].Seq+uint64(i) {
				return fmt.Errorf("serve: batch result seqs not contiguous at index %d", i)
			}
		}
	case FrameWelcome, FrameDecision, FrameBusy, FramePing, FramePong, FrameBye:
	case FrameStats:
		// Valid both ways: the request carries no payload, the reply
		// carries Stats.
	case FrameExplain:
		// Valid both ways: the request carries an optional TopK bound, the
		// reply carries Explain.
		if f.TopK < 0 || f.TopK > MaxExplainContexts {
			return fmt.Errorf("serve: explain top_k %d out of range [0,%d]", f.TopK, MaxExplainContexts)
		}
	case FrameError:
		if f.Code == "" {
			return fmt.Errorf("serve: error frame without code")
		}
	default:
		return fmt.Errorf("serve: unknown frame type %q", f.Type)
	}
	return nil
}

// DecodeFrame parses and validates one frame from a single line (without
// the trailing newline). It is the fuzz target FuzzDecodeFrame exercises:
// it must never panic and never accept a frame Validate rejects.
func DecodeFrame(line []byte) (*Frame, error) {
	var f Frame
	if err := DecodeFrameInto(line, &f); err != nil {
		return nil, err
	}
	return &f, nil
}

// DecodeFrameInto parses and validates one frame from a single line into
// f, reusing f's slice capacities and Hints allocations: canonical frames
// (the exact shape AppendFrame emits) decode with zero allocations. Any
// non-canonical but legal JSON falls back to encoding/json with identical
// accept/reject behavior — the fuzz target checks the two paths agree.
func DecodeFrameInto(line []byte, f *Frame) error {
	if len(line) > MaxFrameBytes {
		f.reset()
		return fmt.Errorf("serve: frame of %d bytes exceeds limit %d", len(line), MaxFrameBytes)
	}
	if !decodeFrameFast(line, f) {
		// The fast path bailed (escape sequences, unusual number forms,
		// unknown keys, stats payloads, …): reparse from scratch. A clean
		// struct keeps encoding/json's element reuse from leaking stale
		// fields into sparsely populated batch items.
		*f = Frame{}
		if err := json.Unmarshal(line, f); err != nil {
			return fmt.Errorf("serve: bad frame: %w", err)
		}
	}
	return f.Validate()
}

// FrameReader reads newline-delimited frames with a hard per-frame size
// bound.
type FrameReader struct {
	r *bufio.Reader
	// line backs readLine when a frame straddles the buffered reader's
	// window; decoded frames never retain it.
	line []byte
}

// frameReaderBuf sizes the buffered reader so a full MaxBatch access
// frame normally fits in one ReadSlice window (zero-copy readLine).
const frameReaderBuf = 1 << 14

// NewFrameReader wraps r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: bufio.NewReaderSize(r, frameReaderBuf)}
}

// Read returns the next frame. Oversized lines fail without being
// buffered whole; io.EOF surfaces unchanged so callers can distinguish a
// clean close.
func (fr *FrameReader) Read() (*Frame, error) {
	line, err := fr.readLine()
	if err != nil {
		return nil, err
	}
	return DecodeFrame(line)
}

// ReadInto decodes the next frame into f, reusing its buffers (see
// DecodeFrameInto). The steady-state serving path uses it to keep decode
// allocation-free.
func (fr *FrameReader) ReadInto(f *Frame) error {
	line, err := fr.readLine()
	if err != nil {
		return err
	}
	return DecodeFrameInto(line, f)
}

// ReadTimedInto is ReadInto with the parse cost split out: it returns how
// long DecodeFrameInto took, excluding the wait for bytes to arrive on the
// wire. The instrumented serving path uses it so the decode histogram
// measures JSON parsing, not client think-time.
func (fr *FrameReader) ReadTimedInto(f *Frame) (time.Duration, error) {
	line, err := fr.readLine()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	err = DecodeFrameInto(line, f)
	return time.Since(start), err
}

// readLine returns one newline-terminated line (without the newline)
// under the frame size bound. The returned slice aliases either the
// bufio window or fr.line and is only valid until the next call.
func (fr *FrameReader) readLine() ([]byte, error) {
	chunk, err := fr.r.ReadSlice('\n')
	if err == nil {
		// Whole line in one window: hand it out without copying.
		if len(chunk) > MaxFrameBytes+1 {
			return nil, fmt.Errorf("serve: frame exceeds %d bytes", MaxFrameBytes)
		}
		return chunk[:len(chunk)-1], nil
	}
	fr.line = fr.line[:0]
	for {
		if len(chunk) > 0 {
			fr.line = append(fr.line, chunk...)
			if len(fr.line) > MaxFrameBytes+1 {
				return nil, fmt.Errorf("serve: frame exceeds %d bytes", MaxFrameBytes)
			}
		}
		if err == nil {
			return fr.line[:len(fr.line)-1], nil
		}
		if err != bufio.ErrBufferFull {
			if err == io.EOF && len(fr.line) > 0 {
				// A final unterminated line is a truncated frame.
				return nil, io.ErrUnexpectedEOF
			}
			return nil, err
		}
		chunk, err = fr.r.ReadSlice('\n')
	}
}
