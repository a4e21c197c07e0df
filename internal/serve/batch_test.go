package serve

import (
	"bytes"
	"encoding/json"
	"net"
	"runtime"
	"slices"
	"testing"
	"time"

	"semloc/internal/core"
	"semloc/internal/obs"
)

// batchAccesses builds n contiguous accesses starting at first, on the
// shared deterministic stream.
func batchAccesses(first uint64, n int) []BatchAccess {
	accs := make([]BatchAccess, n)
	for i := range accs {
		seq := first + uint64(i)
		accs[i] = BatchAccess{Seq: seq, PC: 0x400000, Addr: accessAddr(seq)}
	}
	return accs
}

func (tc *testConn) helloBatch(session string, ask int) *Frame {
	tc.t.Helper()
	tc.send(&Frame{Type: FrameHello, Version: ProtocolVersion, Session: session, Batch: ask})
	w := tc.recv()
	if w.Type != FrameWelcome {
		tc.t.Fatalf("want welcome, got %s (%s: %s)", w.Type, w.Code, w.Msg)
	}
	return w
}

func (tc *testConn) batch(first uint64, n int) *Frame {
	tc.t.Helper()
	tc.send(&Frame{Type: FrameBatch, Accesses: batchAccesses(first, n)})
	return tc.recv()
}

func TestBatchFrameRoundTrip(t *testing.T) {
	frames := []*Frame{
		{Type: FrameHello, Version: ProtocolVersion, Session: "s1", Batch: 16},
		{Type: FrameWelcome, Session: "s1", LastSeq: 9, Batch: 16},
		{Type: FrameBatch, Accesses: []BatchAccess{
			{Seq: 10, PC: 0x400123, Addr: 0xdeadbe00, Value: 7, Reg: 3, BranchHist: 0xabcd, Store: true,
				Hints: &Hints{Valid: true, TypeID: 2, LinkOffset: 8, RefForm: 1}},
			{Seq: 11, Addr: 0xdeadbe40},
		}},
		{Type: FrameBatch, Results: []BatchDecision{
			{Seq: 10, Prefetch: []uint64{0xdeadbe40}, Shadow: []uint64{0xdeadbe80}},
			{Seq: 11, Replayed: true},
			{Seq: 12, Degraded: true, Prefetch: []uint64{64}},
			{Seq: 13, Code: CodeStaleSeq},
		}},
	}
	for _, f := range frames {
		b, err := encodeFrame(f)
		if err != nil {
			t.Fatalf("encode %s: %v", f.Type, err)
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

func TestBatchValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		f    *Frame
	}{
		{"empty batch", &Frame{Type: FrameBatch}},
		{"both sides", &Frame{Type: FrameBatch,
			Accesses: batchAccesses(1, 1), Results: []BatchDecision{{Seq: 1}}}},
		{"oversize", &Frame{Type: FrameBatch, Accesses: batchAccesses(1, MaxBatch+1)}},
		{"zero seq", &Frame{Type: FrameBatch, Accesses: []BatchAccess{{Seq: 0}}}},
		{"duplicate seqs", &Frame{Type: FrameBatch,
			Accesses: []BatchAccess{{Seq: 5}, {Seq: 5}}}},
		{"descending seqs", &Frame{Type: FrameBatch,
			Accesses: []BatchAccess{{Seq: 5}, {Seq: 4}}}},
		{"gapped seqs", &Frame{Type: FrameBatch,
			Accesses: []BatchAccess{{Seq: 5}, {Seq: 7}}}},
		{"gapped results", &Frame{Type: FrameBatch,
			Results: []BatchDecision{{Seq: 5}, {Seq: 7}}}},
		{"negative hello ask", &Frame{Type: FrameHello, Version: ProtocolVersion, Session: "s", Batch: -1}},
	}
	for _, tc := range cases {
		if err := tc.f.Validate(); err == nil {
			t.Errorf("%s: invalid frame validated", tc.name)
		}
		if _, err := encodeFrame(tc.f); err == nil {
			t.Errorf("%s: invalid frame encoded", tc.name)
		}
	}
	// The edge that must pass: a full MaxBatch frame.
	full := &Frame{Type: FrameBatch, Accesses: batchAccesses(1, MaxBatch)}
	if err := full.Validate(); err != nil {
		t.Fatalf("MaxBatch frame rejected: %v", err)
	}
}

// TestAppendFrameMatchesJSONMarshal pins the hand-rolled encoder to
// encoding/json byte for byte: for every valid frame — including ones
// whose strings force the fallback (escapes, non-ASCII, HTML-escaped
// runes) — AppendFrame must produce exactly json.Marshal's bytes plus
// the newline.
func TestAppendFrameMatchesJSONMarshal(t *testing.T) {
	frames := []*Frame{
		{Type: FrameHello, Version: ProtocolVersion, Session: "s1", Batch: 64},
		{Type: FrameWelcome, Session: "s1", LastSeq: 1<<64 - 1, Resumed: true, Batch: 1},
		{Type: FrameAccess, Seq: 7, PC: 0x400123, Addr: 0xdeadbe00, Value: 9, Reg: 3,
			BranchHist: 0xffff, Store: true,
			Hints: &Hints{Valid: true, TypeID: 255, LinkOffset: 1<<16 - 1, RefForm: 2}},
		{Type: FrameDecision, Seq: 7, Prefetch: []uint64{0, 1, 1<<64 - 1}, Shadow: []uint64{2}},
		{Type: FrameBusy, Seq: 9, RetryMs: 50},
		{Type: FramePong},
		{Type: FrameStats, Stats: &SessionStats{ID: "s", Decisions: 1, LastSeq: 1}},
		{Type: FrameBatch, Accesses: batchAccesses(1, MaxBatch)},
		{Type: FrameBatch, Results: []BatchDecision{
			{Seq: 3, Prefetch: []uint64{64}, Shadow: []uint64{128}},
			{Seq: 4, Replayed: true}, {Seq: 5, Degraded: true}, {Seq: 6, Code: CodeStaleSeq},
		}},
		// Strings the fast path must bail on, falling back to
		// encoding/json (which escapes <, >, & and control bytes).
		{Type: FrameError, Code: CodeProtocol, Msg: `quote " backslash \ done`},
		{Type: FrameError, Code: CodeBadFrame, Msg: "<html> & ünïcode \t tab"},
		{Type: FrameError, Code: CodeStaleSeq, Msg: "plain ascii msg"},
		{Type: FrameHello, Version: ProtocolVersion, Session: "sess-é"},
	}
	for i, f := range frames {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatalf("case %d: json.Marshal: %v", i, err)
		}
		got, err := AppendFrame(nil, f)
		if err != nil {
			t.Fatalf("case %d: AppendFrame: %v", i, err)
		}
		if !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("case %d (%s): encoder diverged from encoding/json:\nfast: %s\njson: %s\n",
				i, f.Type, got, want)
		}
	}
}

// TestDecodeFrameIntoMatchesEncodingJSON runs canonical and deliberately
// non-canonical inputs through DecodeFrameInto and through a plain
// json.Unmarshal+Validate, and requires identical outcomes: same frame
// or both rejecting. The non-canonical shapes (reordered keys,
// whitespace, escapes, floats, leading zeros, duplicate keys) are
// exactly the ones the fast parser must bail on rather than mis-parse.
func TestDecodeFrameIntoMatchesEncodingJSON(t *testing.T) {
	lines := []string{
		`{"type":"access","seq":1,"pc":4,"addr":64}`,
		`{"seq":1,"addr":64,"type":"access","pc":4}`,             // reordered keys
		`{ "type" : "access" , "seq" : 1 , "addr" : 64 }`,        // whitespace
		`{"type":"access","seq":1,"addr":64}`,                    // escaped type
		`{"type":"access","seq":01,"addr":64}`,                   // leading zero: invalid JSON
		`{"type":"access","seq":1.0,"addr":64}`,                  // float into uint64
		`{"type":"access","seq":1e0,"addr":64}`,                  // exponent
		`{"type":"access","seq":-1,"addr":64}`,                   // negative into uint64
		`{"type":"access","seq":18446744073709551615,"addr":64}`, // max uint64
		`{"type":"access","seq":18446744073709551616,"addr":64}`, // overflow
		`{"type":"access","seq":1,"seq":2,"addr":64}`,            // duplicate key
		`{"type":"access","seq":1,"addr":64,"unknown_key":true}`, // unknown key
		`{"type":"access","seq":1,"addr":64,"hints":null}`,       // null hints
		`{"type":"access","seq":1,"addr":64,"store":false}`,      // explicit zero value
		`{"type":"batch","accesses":[{"seq":1},{"seq":2}]}`,      // minimal batch
		`{"type":"batch","accesses":[{"seq":1},{"seq":1}]}`,      // duplicate seqs: invalid
		`{"type":"batch","accesses":[]}`,                         // empty batch: invalid
		`{"type":"batch","results":[{"seq":1,"prefetch":[64]}]}`, // results side
		`{"type":"batch","accesses":[{"seq":1,"hints":{"valid":true,"type_id":3}}]}`,
		`{"type":"decision","seq":1,"prefetch":[1,2,3],"shadow":[]}`,
		`{"type":"hello","v":1,"session":"s","batch":16}`,
		`{"type":"hello","v":1,"session":"s","batch":-2}`, // negative ask: invalid
		`{"type":"error","code":"stale_seq","msg":"mé"}`,
		`{"type":"access","seq":1,"addr":64}extra`, // trailing garbage
		`{"type":"access","seq":1,"addr":64} `,     // trailing space
	}
	for _, line := range lines {
		var fast Frame
		fastErr := DecodeFrameInto([]byte(line), &fast)

		var ref Frame
		refErr := json.Unmarshal([]byte(line), &ref)
		if refErr == nil {
			refErr = ref.Validate()
		}
		if (fastErr == nil) != (refErr == nil) {
			t.Errorf("%s: decoder disagreement: fast err %v, encoding/json err %v", line, fastErr, refErr)
			continue
		}
		if fastErr != nil {
			continue
		}
		// Compare through re-encoding: the frames' public payloads must
		// be identical (spare buffers aside).
		fb, _ := json.Marshal(&fast)
		rb, _ := json.Marshal(&ref)
		if !bytes.Equal(fb, rb) {
			t.Errorf("%s: decoded frames differ:\nfast: %s\njson: %s", line, fb, rb)
		}
	}
}

// maxGuardBytes bounds the bytes an alloc guard's runs may allocate in
// all. testing.AllocsPerRun rounds mallocs per run down, so a reused
// buffer that doubles without bound reads 0 allocs/op; its bytes do not.
const maxGuardBytes = 64 << 10

// allocsPerRun is testing.AllocsPerRun, plus the bytes allocated across
// the runs and AllocsPerRun's warm-up call: the runtime.MemStats.TotalAlloc
// delta.
func allocsPerRun(runs int, f func()) (allocs float64, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs = testing.AllocsPerRun(runs, f)
	runtime.ReadMemStats(&after)
	return allocs, after.TotalAlloc - before.TotalAlloc
}

// TestSteadyStateCodecZeroAlloc is the batched-pipeline alloc guard: once
// warm, encoding and decoding a full 64-access batch (hints included)
// into reused buffers must not allocate at all — that is the whole
// premise of the amortized serving path. Each step's runs must also
// allocate at most maxGuardBytes in all, so a reused buffer that grows
// without bound fails too.
func TestSteadyStateCodecZeroAlloc(t *testing.T) {
	fr := &Frame{Type: FrameBatch}
	for i := 0; i < MaxBatch; i++ {
		fr.Accesses = append(fr.Accesses, BatchAccess{
			Seq: uint64(i + 1), PC: 0x400000 + uint64(i), Addr: uint64(0x100000 + i*64),
			Value: uint64(i), Reg: uint64(i % 16), BranchHist: uint16(i), Store: i%2 == 0,
			Hints: &Hints{Valid: true, TypeID: 3, LinkOffset: 8, RefForm: 1},
		})
	}
	buf, err := AppendFrame(nil, fr) // warm the buffer
	if err != nil {
		t.Fatal(err)
	}
	if n, b := allocsPerRun(200, func() {
		buf, err = AppendFrame(buf[:0], fr)
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 || b > maxGuardBytes {
		t.Fatalf("steady-state batch encode allocates %.1f/op and %d B in all, want 0 and at most %d B", n, b, maxGuardBytes)
	}

	line := buf[:len(buf)-1]
	var dec Frame
	if err := DecodeFrameInto(line, &dec); err != nil { // warm the frame's storage
		t.Fatal(err)
	}
	if n, b := allocsPerRun(200, func() {
		if err := DecodeFrameInto(line, &dec); err != nil {
			t.Fatal(err)
		}
	}); n != 0 || b > maxGuardBytes {
		t.Fatalf("steady-state batch decode allocates %.1f/op and %d B in all, want 0 and at most %d B", n, b, maxGuardBytes)
	}
	if len(dec.Accesses) != MaxBatch || dec.Accesses[63].Hints == nil {
		t.Fatalf("reused decode dropped payload: %d accesses", len(dec.Accesses))
	}

	// The single-frame path gets the same guarantee (satellite: writer-side
	// buffer reuse on the legacy path).
	single := &Frame{Type: FrameDecision, Seq: 9, Prefetch: []uint64{64, 128}, Shadow: []uint64{192}}
	if buf, err = AppendFrame(buf[:0], single); err != nil {
		t.Fatal(err)
	}
	if n, b := allocsPerRun(200, func() {
		buf, err = AppendFrame(buf[:0], single)
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 || b > maxGuardBytes {
		t.Fatalf("steady-state single encode allocates %.1f/op and %d B in all, want 0 and at most %d B", n, b, maxGuardBytes)
	}
	sline := buf[:len(buf)-1]
	if err := DecodeFrameInto(sline, &dec); err != nil {
		t.Fatal(err)
	}
	if n, b := allocsPerRun(200, func() {
		if err := DecodeFrameInto(sline, &dec); err != nil {
			t.Fatal(err)
		}
	}); n != 0 || b > maxGuardBytes {
		t.Fatalf("steady-state single decode allocates %.1f/op and %d B in all, want 0 and at most %d B", n, b, maxGuardBytes)
	}
	// Reuse must not carry the previous decode's lists into this one.
	if dec.Seq != 9 || !slices.Equal(dec.Prefetch, []uint64{64, 128}) || !slices.Equal(dec.Shadow, []uint64{192}) {
		t.Fatalf("reused single decode = seq %d prefetch %v shadow %v, want seq 9 prefetch [64 128] shadow [192]",
			dec.Seq, dec.Prefetch, dec.Shadow)
	}

	// The reader's move of an access frame into a batch of one: decode,
	// move, reset must keep recycling the frame's Hints and access slot.
	acc := &Frame{Type: FrameAccess, Seq: 7, PC: 0x400123, Addr: 0xdeadbe00, Value: 9, Reg: 3,
		BranchHist: 0xffff, Store: true, Hints: &Hints{Valid: true, TypeID: 3, LinkOffset: 8, RefForm: 1}}
	if buf, err = AppendFrame(buf[:0], acc); err != nil {
		t.Fatal(err)
	}
	aline := buf[:len(buf)-1]
	var pooled Frame
	moveOne := func() {
		if err := DecodeFrameInto(aline, &pooled); err != nil {
			t.Fatal(err)
		}
		batchOfOne(&pooled)
		if a := pooled.Accesses; len(a) != 1 || a[0].Seq != 7 || a[0].Hints == nil || *a[0].Hints != *acc.Hints || pooled.Hints != nil {
			t.Fatalf("batch of one lost the access payload: %+v", pooled)
		}
		pooled.reset()
	}
	moveOne() // warm: the frame and its access slot each come to hold one Hints
	moveOne()
	if n, b := allocsPerRun(200, moveOne); n != 0 || b > maxGuardBytes {
		t.Fatalf("steady-state access decode + batch-of-one move allocates %.1f/op and %d B in all, want 0 and at most %d B", n, b, maxGuardBytes)
	}
}

// TestReplayRingSpanStraddle pins span-granular replay: the ring holds
// whole batch spans, lookup resolves any seq inside a span, eviction
// drops whole oldest spans, and entries() flattens in ascending order
// for snapshots.
func TestReplayRingSpanStraddle(t *testing.T) {
	span := func(first uint64, n int) []ReplayEntry {
		es := make([]ReplayEntry, n)
		for i := range es {
			seq := first + uint64(i)
			es[i] = ReplayEntry{Seq: seq, Prefetch: []uint64{seq * 64}}
		}
		return es
	}
	var r replayRing
	r.init(2)
	r.putSpan(span(1, 4))
	r.putSpan(span(5, 4))
	r.putSpan(span(9, 4)) // evicts span 1..4 whole
	for seq := uint64(1); seq <= 4; seq++ {
		if _, ok := r.get(seq); ok {
			t.Fatalf("seq %d survived span eviction", seq)
		}
	}
	for seq := uint64(5); seq <= 12; seq++ {
		e, ok := r.get(seq)
		if !ok || e.Seq != seq || e.Prefetch[0] != seq*64 {
			t.Fatalf("seq %d not resolvable inside its span (ok=%v e=%+v)", seq, ok, e)
		}
	}
	if _, ok := r.get(13); ok {
		t.Fatal("seq past the newest span resolved")
	}
	es := r.entries()
	if len(es) != 8 {
		t.Fatalf("entries() flattened %d entries, want 8", len(es))
	}
	for i, e := range es {
		if want := uint64(5 + i); e.Seq != want {
			t.Fatalf("entries()[%d].Seq = %d, want %d (ascending oldest-first)", i, e.Seq, want)
		}
	}
	// Mixed granularity: singles and spans share the ring.
	r.putSpan([]ReplayEntry{{Seq: 13, Prefetch: []uint64{13 * 64}}})
	if _, ok := r.get(9); !ok {
		t.Fatal("span 9..12 evicted by a single put into a depth-2 ring")
	}
	if e, ok := r.get(13); !ok || e.Prefetch[0] != 13*64 {
		t.Fatal("single entry lost")
	}
}

func TestServerBatchNegotiation(t *testing.T) {
	s := startServer(t, Config{MaxBatch: 8})

	// Old client: no batch field, granted 0; batch frames are protocol
	// errors but the connection survives them.
	tc := dialServer(t, s)
	if w := tc.hello("nb"); w.Batch != 0 {
		t.Fatalf("unasked hello granted batch %d", w.Batch)
	}
	if got := tc.batch(1, 2); got.Type != FrameError || got.Code != CodeProtocol {
		t.Fatalf("unnegotiated batch: want protocol error, got %+v", got)
	}
	if got := tc.access(1, accessAddr(1)); got.Type != FrameDecision {
		t.Fatalf("connection unusable after batch rejection: %+v", got)
	}

	// Ask above the server cap: granted the cap.
	tc2 := dialServer(t, s)
	if w := tc2.helloBatch("nb2", 200); w.Batch != 8 {
		t.Fatalf("asked 200 against cap 8, granted %d", w.Batch)
	}
	if got := tc2.batch(1, 9); got.Type != FrameError || got.Code != CodeProtocol {
		t.Fatalf("oversize batch: want protocol error, got %+v", got)
	}
	if got := tc2.batch(1, 8); got.Type != FrameBatch || len(got.Results) != 8 {
		t.Fatalf("at-cap batch rejected: %+v", got)
	}

	// A client-sent results batch is a protocol error (no accesses).
	tc2.send(&Frame{Type: FrameBatch, Results: []BatchDecision{{Seq: 99}}})
	if got := tc2.recv(); got.Type != FrameError || got.Code != CodeProtocol {
		t.Fatalf("results batch from client: want protocol error, got %+v", got)
	}

	// Batching disabled server-side: every ask granted 0.
	s2 := startServer(t, Config{MaxBatch: -1})
	tc3 := dialServer(t, s2)
	if w := tc3.helloBatch("nb3", 64); w.Batch != 0 {
		t.Fatalf("disabled batching granted %d", w.Batch)
	}
}

// TestServerBatchDecisionParity drives the same stream batched (varying
// sizes, mixed with single access frames on the same connection) and
// requires bit-identical decisions to an in-process reference learner.
func TestServerBatchDecisionParity(t *testing.T) {
	s := startServer(t, Config{})
	ref, err := NewLearner(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tc := dialServer(t, s)
	if w := tc.helloBatch("bparity", 16); w.Batch != 16 {
		t.Fatalf("granted %d, want 16", w.Batch)
	}

	check := func(seq uint64, prefetch, shadow []uint64, degraded, replayed bool) {
		t.Helper()
		pf, sh := ref.DecideAccess(&BatchAccess{Seq: seq, PC: 0x400000, Addr: accessAddr(seq)})
		if degraded || replayed {
			t.Fatalf("seq %d: degraded=%v replayed=%v in lockstep", seq, degraded, replayed)
		}
		if !equalU64(prefetch, pf) || !equalU64(shadow, sh) {
			t.Fatalf("seq %d: daemon %v/%v, reference %v/%v", seq, prefetch, shadow, pf, sh)
		}
	}

	seq := uint64(1)
	for _, k := range []int{1, 3, 16, 7, 16, 2, 11, 16, 16, 5, 16, 16, 9, 16} {
		got := tc.batch(seq, k)
		if got.Type != FrameBatch || len(got.Results) != k {
			t.Fatalf("batch at %d size %d: got %s with %d results (%s)", seq, k, got.Type, len(got.Results), got.Msg)
		}
		for i, d := range got.Results {
			if d.Seq != seq+uint64(i) {
				t.Fatalf("result %d: seq %d, want %d", i, d.Seq, seq+uint64(i))
			}
			check(d.Seq, d.Prefetch, d.Shadow, d.Degraded, d.Replayed)
		}
		seq += uint64(k)

		// Interleave a plain access frame: single and batched framing
		// coexist on one negotiated connection.
		single := tc.access(seq, accessAddr(seq))
		if single.Type != FrameDecision || single.Seq != seq {
			t.Fatalf("interleaved single at %d: %+v", seq, single)
		}
		check(seq, single.Prefetch, single.Shadow, single.Degraded, single.Replayed)
		seq++
	}
}

// TestServerBatchPartialReplay pins the straddle semantics: a resent
// batch overlapping the session's high-water mark gets its applied
// prefix answered from the replay ring (Replayed), its unseen tail
// decided fresh — and seqs that fell off the ring come back per-item as
// stale_seq codes, not a connection error.
func TestServerBatchPartialReplay(t *testing.T) {
	s := startServer(t, Config{ReplayDepth: 2}) // two spans of replay window
	tc := dialServer(t, s)
	tc.helloBatch("breplay", 16)

	for _, first := range []uint64{1, 5, 9} {
		if got := tc.batch(first, 4); got.Type != FrameBatch || len(got.Results) != 4 {
			t.Fatalf("batch at %d: %+v", first, got)
		}
	}
	// lastSeq = 12; ring holds spans [5..8] and [9..12]; [1..4] evicted.

	// Straddle high-water: [11..14] → 11,12 replayed, 13,14 fresh.
	got := tc.batch(11, 4)
	if got.Type != FrameBatch || len(got.Results) != 4 {
		t.Fatalf("straddle batch: %+v", got)
	}
	for i, wantReplay := range []bool{true, true, false, false} {
		d := got.Results[i]
		if d.Replayed != wantReplay || d.Code != "" {
			t.Fatalf("straddle result %d (seq %d): replayed=%v code=%q, want replayed=%v",
				i, d.Seq, d.Replayed, d.Code, wantReplay)
		}
		if len(d.Prefetch) == 0 && len(d.Shadow) == 0 && !wantReplay {
			// fresh decisions may legitimately be empty early in training;
			// nothing to assert beyond the flags.
			_ = d
		}
	}
	// lastSeq = 14 now. Resend [3..10]: 3,4 evicted → stale codes; 5..10
	// replayed from the surviving spans... unless the fresh tail above
	// already rolled the ring. Recompute: the straddle batch put one new
	// span [13,14], evicting [5..8]. So 3..8 are stale, 9,10 replayed.
	got = tc.batch(3, 8)
	if got.Type != FrameBatch || len(got.Results) != 8 {
		t.Fatalf("stale-split batch: %+v", got)
	}
	for i, d := range got.Results {
		seq := uint64(3 + i)
		switch {
		case seq <= 8:
			if d.Code != CodeStaleSeq || d.Replayed {
				t.Fatalf("seq %d: want stale_seq code, got replayed=%v code=%q", seq, d.Replayed, d.Code)
			}
		default: // 9, 10
			if !d.Replayed || d.Code != "" {
				t.Fatalf("seq %d: want replay, got replayed=%v code=%q", seq, d.Replayed, d.Code)
			}
		}
	}

	// The stream is undisturbed: the next fresh batch continues at 15.
	got = tc.batch(15, 2)
	if got.Type != FrameBatch || len(got.Results) != 2 || got.Results[0].Replayed {
		t.Fatalf("stream desynced after replay probes: %+v", got)
	}
}

// TestServerBatchTracerCountMatch drives batched traffic (with replays
// mixed in) through a fully instrumented server and asserts the
// invariants that keep batched and unbatched artifacts comparable:
// every serve_*_latency histogram count equals serve_decisions_total,
// and the serve_batch_size histogram's sum re-adds to the same total.
func TestServerBatchTracerCountMatch(t *testing.T) {
	reg := obs.NewRegistry()
	s := startServer(t, Config{
		Reg: reg,
		Trace: &TraceConfig{
			Spans:       obs.NewSpanRecorder(),
			SampleEvery: 1,
			Logf:        func(string, ...any) {},
		},
	})
	tc := dialServer(t, s)
	tc.helloBatch("btrace", 16)

	const fresh = 16 + 16 + 5 + 1 // three batches and one single
	tc.batch(1, 16)
	tc.batch(17, 16)
	tc.batch(33, 5)
	tc.access(38, accessAddr(38))
	// Replays must not observe: resend a fully applied batch.
	if got := tc.batch(17, 16); !got.Results[0].Replayed {
		t.Fatalf("expected replayed resend, got %+v", got.Results[0])
	}

	waitFor := func(cond func() bool, msg string) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatal(msg)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	decisions := func() uint64 { return reg.Counter("serve_decisions_total", "").Value() }
	waitFor(func() bool { return decisions() == fresh }, "decisions_total never settled")

	for _, name := range []string{
		MetricDecodeLatency, MetricQueueWaitLatency,
		MetricDecideLatency, MetricWriteLatency, MetricFrameLatency,
	} {
		h := reg.Histogram(name, "", obs.DefaultLatencyBuckets)
		waitFor(func() bool { return h.Count() == fresh },
			name+" count never reached decisions_total")
	}
	bs := reg.Histogram(MetricBatchSize, "", batchSizeBuckets)
	waitFor(func() bool { return uint64(bs.Sum()+0.5) == fresh },
		"sum(serve_batch_size) never reached decisions_total")
	if bs.Count() != 4 {
		t.Fatalf("batch_size observed %d frames, want 4 (replays never observe)", bs.Count())
	}
}

// TestConnWriterCoalesce unit-tests the reply writer: queued writes
// buffer until flush, the coalesced counter counts frames that joined a
// non-empty buffer, the byte threshold forces a flush, and write()
// (reader-path frames) flushes everything in order.
func TestConnWriterCoalesce(t *testing.T) {
	type chunk struct {
		n int // frames in one Write call
	}
	client, server := net.Pipe()
	defer client.Close()
	got := make(chan chunk, 16)
	go func() {
		buf := make([]byte, 1<<16)
		for {
			n, err := server.Read(buf)
			if err != nil {
				close(got)
				return
			}
			got <- chunk{n: bytes.Count(buf[:n], []byte("\n"))}
		}
	}()

	reg := obs.NewRegistry()
	coalesced := reg.Counter("serve_coalesced_writes_total", "")
	w := newConnWriter(client, time.Second, 1<<20, time.Hour, coalesced)
	defer w.close()

	dec := func(seq uint64) *Frame { return &Frame{Type: FrameDecision, Seq: seq} }
	w.writeq(dec(1))
	w.writeq(dec(2))
	w.writeq(dec(3))
	if n := coalesced.Value(); n != 2 {
		t.Fatalf("coalesced counter %d after 3 queued frames, want 2", n)
	}
	w.flush()
	if c := <-got; c.n != 3 {
		t.Fatalf("flush wrote %d frames in one syscall, want 3", c.n)
	}

	// write() (reader-path) drains anything queued ahead of it, in order.
	w.writeq(dec(4))
	w.write(&Frame{Type: FramePong})
	if c := <-got; c.n != 2 {
		t.Fatalf("write() flushed %d frames, want 2 (queued + own)", c.n)
	}

	// Byte threshold: pick a limit one frame stays under but two cross,
	// so the second writeq flushes both in one syscall.
	one, err := encodeFrame(dec(5))
	if err != nil {
		t.Fatal(err)
	}
	w2 := newConnWriter(client, time.Second, len(one)+1, time.Hour, coalesced)
	defer w2.close()
	w2.writeq(dec(5))
	w2.writeq(dec(6))
	if c := <-got; c.n != 2 {
		t.Fatalf("threshold flush wrote %d frames, want 2", c.n)
	}
}
