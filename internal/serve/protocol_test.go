package serve

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"semloc/internal/core"
)

// encodeFrame renders f as one newline-terminated wire line.
func encodeFrame(f *Frame) ([]byte, error) {
	return AppendFrame(nil, f)
}

func TestFrameEncodeDecodeRoundTrip(t *testing.T) {
	frames := []*Frame{
		{Type: FrameHello, Version: ProtocolVersion, Session: "s1"},
		{Type: FrameWelcome, Session: "s1", LastSeq: 42, Resumed: true},
		{Type: FrameAccess, Seq: 7, PC: 0x400123, Addr: 0xdeadbe00, Value: 9, Reg: 3,
			BranchHist: 0xabcd, Store: true,
			Hints: &Hints{Valid: true, TypeID: 2, LinkOffset: 8, RefForm: 1}},
		{Type: FrameDecision, Seq: 7, Prefetch: []uint64{0xdeadbe40}, Shadow: []uint64{0xdeadbe80}},
		{Type: FrameDecision, Seq: 8, Degraded: true, Prefetch: []uint64{1}},
		{Type: FrameBusy, Seq: 9, RetryMs: 50},
		{Type: FrameError, Code: CodeStaleSeq, Msg: "too old"},
		{Type: FramePing},
		{Type: FramePong},
		{Type: FrameStats},
		{Type: FrameStats, Stats: &SessionStats{
			ID: "s1", Decisions: 10, Degraded: 2, Replayed: 1,
			InboxHighWater: 3, LastSeq: 10, Attached: true}},
		{Type: FrameStats, Stats: &SessionStats{
			ID: "s1", Decisions: 10, LastSeq: 10, Attached: true,
			Learner: &core.LearnerHealth{
				Accesses: 10, Predictions: 4, RealPrefetches: 2,
				OutcomeAccurate: 1, OutcomeUseless: 1,
				Epsilon: 0.5, CSTEntries: 3, CSTCapacity: 512}}},
		{Type: FrameExplain},
		{Type: FrameExplain, TopK: 4},
		{Type: FrameExplain, Explain: &ExplainReport{
			Session: "s1",
			Health:  core.LearnerHealth{Accesses: 10, Explores: 2, PosRewards: 1},
			Contexts: []core.ContextExplain{{
				Context: 0xabc, Trials: 7, Churn: 1,
				Links: []core.LinkExplain{{Delta: 2, Score: 5}, {Delta: -3, Score: -1}}}}}},
		{Type: FrameBye},
	}
	for _, f := range frames {
		b, err := encodeFrame(f)
		if err != nil {
			t.Fatalf("encode %s: %v", f.Type, err)
		}
		if b[len(b)-1] != '\n' {
			t.Fatalf("encode %s: no trailing newline", f.Type)
		}
		got, err := DecodeFrame(b[:len(b)-1])
		if err != nil {
			t.Fatalf("decode %s: %v", f.Type, err)
		}
		b2, err := encodeFrame(got)
		if err != nil {
			t.Fatalf("re-encode %s: %v", f.Type, err)
		}
		if !bytes.Equal(b, b2) {
			t.Fatalf("%s round trip drifted:\n%s%s", f.Type, b, b2)
		}
	}
}

func TestFrameValidateRejects(t *testing.T) {
	bad := []*Frame{
		{Type: "bogus"},
		{Type: FrameHello, Version: ProtocolVersion + 1, Session: "s"},
		{Type: FrameHello, Version: ProtocolVersion},
		{Type: FrameHello, Version: ProtocolVersion, Session: strings.Repeat("x", 129)},
		{Type: FrameAccess},
		{Type: FrameError},
		{Type: FrameExplain, TopK: -1},
		{Type: FrameExplain, TopK: MaxExplainContexts + 1},
	}
	for i, f := range bad {
		if err := f.Validate(); err == nil {
			t.Fatalf("case %d (%s): invalid frame validated", i, f.Type)
		}
		if _, err := encodeFrame(f); err == nil {
			t.Fatalf("case %d (%s): invalid frame encoded", i, f.Type)
		}
	}
}

func TestDecodeFrameRejectsGarbage(t *testing.T) {
	for _, line := range []string{
		"", "not json", "[1,2,3]", `{"type":}`, `{"type":"access"}`,
	} {
		if _, err := DecodeFrame([]byte(line)); err == nil {
			t.Fatalf("decoded %q", line)
		}
	}
	if _, err := DecodeFrame(bytes.Repeat([]byte("a"), MaxFrameBytes+1)); err == nil {
		t.Fatal("decoded an oversize frame")
	}
}

func TestFrameReaderStream(t *testing.T) {
	var buf bytes.Buffer
	want := []*Frame{
		{Type: FrameHello, Version: ProtocolVersion, Session: "s"},
		{Type: FrameAccess, Seq: 1, Addr: 64},
		{Type: FrameBye},
	}
	for _, f := range want {
		b, err := encodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
	}
	r := NewFrameReader(&buf)
	for i, w := range want {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != w.Type || got.Seq != w.Seq {
			t.Fatalf("frame %d: got %s/%d, want %s/%d", i, got.Type, got.Seq, w.Type, w.Seq)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("want io.EOF at stream end, got %v", err)
	}
}

func TestFrameReaderRejectsOversizeAndTruncated(t *testing.T) {
	// A line longer than the frame bound must fail without buffering it all.
	huge := strings.Repeat("x", MaxFrameBytes+2) + "\n"
	if _, err := NewFrameReader(strings.NewReader(huge)).Read(); err == nil {
		t.Fatal("read an oversize line")
	}
	// A final unterminated line is a truncated frame, not a clean EOF.
	if _, err := NewFrameReader(strings.NewReader(`{"type":"ping"}`)).Read(); err != io.ErrUnexpectedEOF {
		t.Fatalf("want ErrUnexpectedEOF for truncated tail, got %v", err)
	}
}

// TestFrameReaderPartialFrameOverConn: a peer that writes half a frame and
// closes leaves a truncated tail, and the reader must surface
// io.ErrUnexpectedEOF (not a clean EOF and not a parsed frame).
func TestFrameReaderPartialFrameOverConn(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go func() {
		client.Write([]byte(`{"type":"access","se`)) // no newline
		client.Close()
	}()
	if _, err := NewFrameReader(server).Read(); err != io.ErrUnexpectedEOF {
		t.Fatalf("partial frame then close: want ErrUnexpectedEOF, got %v", err)
	}
}

// TestFrameReaderDeadlineExpiry: when the read deadline fires mid-frame,
// the reader surfaces the conn's timeout error — and because the partial
// line is buffered inside the FrameReader, the conn is not resumable for
// framing (the daemon's reader loop treats any non-nil error as fatal for
// the connection, which this pins).
func TestFrameReaderDeadlineExpiry(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go client.Write([]byte(`{"type":"ping"`)) // stall mid-frame, never newline
	server.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	r := NewFrameReader(server)
	_, err := r.Read()
	if err == nil {
		t.Fatal("read succeeded with an unterminated frame")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("want a net timeout error, got %v", err)
	}
}

// TestFrameReaderReadTimed: ReadTimedInto decodes the same frames as
// Read, into one reused frame, and a decode duration that reflects parse
// cost only.
func TestFrameReaderReadTimed(t *testing.T) {
	var buf bytes.Buffer
	for i := uint64(1); i <= 3; i++ {
		b, err := encodeFrame(&Frame{Type: FrameAccess, Seq: i, Addr: i * 64})
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
	}
	r := NewFrameReader(&buf)
	var f Frame
	for i := uint64(1); i <= 3; i++ {
		d, err := r.ReadTimedInto(&f)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Seq != i || f.Addr != i*64 {
			t.Fatalf("frame %d: %+v", i, f)
		}
		if d < 0 {
			t.Fatalf("negative decode duration %v", d)
		}
	}
	if _, err := r.ReadTimedInto(&f); err != io.EOF {
		t.Fatalf("want io.EOF at stream end, got %v", err)
	}
}

// FuzzDecodeFrame is the wire-decoder fuzz target: DecodeFrame must never
// panic, and anything it accepts must re-encode and re-decode cleanly
// (no frame can pass validation yet be unrepresentable).
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte(`{"type":"hello","v":1,"session":"s"}`))
	f.Add([]byte(`{"type":"access","seq":1,"pc":1,"addr":64,"store":true}`))
	f.Add([]byte(`{"type":"decision","seq":1,"prefetch":[128],"degraded":true}`))
	f.Add([]byte(`{"type":"error","code":"bad-frame","msg":"x"}`))
	f.Add([]byte(`{"type":"busy","retry_ms":50}`))
	f.Add([]byte(``))
	f.Add([]byte(`{"type":"access","seq":0}`))
	f.Add([]byte(`{"hints":{"valid":true}}`))
	f.Add([]byte(`{"type":"hello","v":1,"session":"s","batch":64}`))
	f.Add([]byte(`{"type":"batch","accesses":[{"seq":1,"addr":64},{"seq":2,"addr":128}]}`))
	f.Add([]byte(`{"type":"batch","results":[{"seq":1,"prefetch":[64]},{"seq":2,"replayed":true}]}`))
	f.Add([]byte(`{"type":"batch","accesses":[]}`))                    // zero-length: rejected
	f.Add([]byte(`{"type":"batch","accesses":[{"seq":3},{"seq":3}]}`)) // duplicate seqs: rejected
	f.Add([]byte(`{"type":"batch","accesses":[{"seq":3},{"seq":9}]}`)) // gapped seqs: rejected
	f.Add([]byte(`{"type":"explain"}`))
	f.Add([]byte(`{"type":"explain","top_k":4}`))
	f.Add([]byte(`{"type":"explain","top_k":-1}`)) // negative top_k: rejected
	f.Add([]byte(`{"type":"explain","explain":{"session":"s1","health":{"accesses":10,"real_prefetches":2,"outcome_accurate":1,"outcome_useless":1,"epsilon":0.5},"contexts":[{"context":123,"trials":7,"churn":1,"links":[{"delta":2,"score":5},{"delta":-3,"score":-1}]}]}}`))
	f.Add([]byte(`{"type":"stats","stats":{"id":"s1","decisions":10,"degraded":0,"replayed":0,"inbox_high_water":1,"last_seq":10,"attached":true,"learner":{"accesses":10,"predictions":4,"real_prefetches":2,"outcome_accurate":1,"outcome_useless":1,"cst_entries":3,"cst_capacity":512}}}`))
	f.Add(append([]byte(`{"type":"batch","accesses":[{"seq":1}`),
		append(bytes.Repeat([]byte(`,{"seq":2}`), MaxBatch), ']', '}')...)) // oversize: rejected
	f.Fuzz(func(t *testing.T, line []byte) {
		fr, err := DecodeFrame(line)
		if err != nil {
			return
		}
		b, err := encodeFrame(fr)
		if err != nil {
			t.Fatalf("accepted frame failed to encode: %v (input %q)", err, line)
		}
		if _, err := DecodeFrame(b[:len(b)-1]); err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v (input %q)", err, line)
		}
	})
}
