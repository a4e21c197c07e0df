package serve

import (
	"net"
	"runtime"
	"testing"
	"time"

	"semloc/internal/core"
)

// testConn is a minimal raw-wire client for in-package server tests (the
// full retrying client lives in serve/client and gets its own tests).
type testConn struct {
	t *testing.T
	c net.Conn
	r *FrameReader
}

func dialServer(t *testing.T, s *Server) *testConn {
	t.Helper()
	c, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	tc := &testConn{t: t, c: c, r: NewFrameReader(c)}
	t.Cleanup(func() { c.Close() })
	return tc
}

func (tc *testConn) send(f *Frame) {
	tc.t.Helper()
	b, err := encodeFrame(f)
	if err != nil {
		tc.t.Fatal(err)
	}
	if _, err := tc.c.Write(b); err != nil {
		tc.t.Fatal(err)
	}
}

func (tc *testConn) recv() *Frame {
	tc.t.Helper()
	tc.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := tc.r.Read()
	if err != nil {
		tc.t.Fatalf("reading frame: %v", err)
	}
	return f
}

func (tc *testConn) hello(session string) *Frame {
	tc.t.Helper()
	tc.send(&Frame{Type: FrameHello, Version: ProtocolVersion, Session: session})
	w := tc.recv()
	if w.Type != FrameWelcome {
		tc.t.Fatalf("want welcome, got %s (%s: %s)", w.Type, w.Code, w.Msg)
	}
	return w
}

func (tc *testConn) access(seq, addr uint64) *Frame {
	tc.t.Helper()
	tc.send(&Frame{Type: FrameAccess, Seq: seq, PC: 0x400000, Addr: addr})
	return tc.recv()
}

func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// accessAddr is the shared deterministic access stream: a strided scan
// with a periodic revisit, enough structure for the learner to predict.
func accessAddr(i uint64) uint64 { return 0x100000 + (i%512)*64 }

func TestServerLifecycleAndDecisionParity(t *testing.T) {
	s := startServer(t, Config{})
	tc := dialServer(t, s)
	w := tc.hello("parity")
	if w.Resumed || w.LastSeq != 0 {
		t.Fatalf("fresh session welcomed as resumed=%v lastSeq=%d", w.Resumed, w.LastSeq)
	}

	// The same stream through an in-process learner must match the
	// daemon's decisions exactly.
	ref, err := NewLearner(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := uint64(1); i <= n; i++ {
		pf, sh := ref.DecideAccess(&BatchAccess{Seq: i, PC: 0x400000, Addr: accessAddr(i)})
		got := tc.access(i, accessAddr(i))
		if got.Type != FrameDecision || got.Seq != i {
			t.Fatalf("seq %d: got %s/%d", i, got.Type, got.Seq)
		}
		if got.Degraded {
			t.Fatalf("seq %d: unexpected degraded decision in lockstep", i)
		}
		if !SameDecision(got, &Frame{Prefetch: pf, Shadow: sh}) {
			t.Fatalf("seq %d: daemon %v/%v, reference %v/%v",
				i, got.Prefetch, got.Shadow, pf, sh)
		}
	}

	// Detach and re-attach: the session survives with its seq high-water.
	tc.send(&Frame{Type: FrameBye})
	tc.c.Close()
	tc2 := dialServer(t, s)
	w2 := tc2.hello("parity")
	if !w2.Resumed || w2.LastSeq != n {
		t.Fatalf("re-attach: resumed=%v lastSeq=%d, want true/%d", w2.Resumed, w2.LastSeq, n)
	}
	// The learner kept its state: decisions still match the reference.
	for i := uint64(n + 1); i <= n+200; i++ {
		pf, sh := ref.DecideAccess(&BatchAccess{Seq: i, PC: 0x400000, Addr: accessAddr(i)})
		if got := tc2.access(i, accessAddr(i)); !SameDecision(got, &Frame{Prefetch: pf, Shadow: sh}) {
			t.Fatalf("post-reattach seq %d: decisions diverged", i)
		}
	}
}

func TestServerDuplicateSeqReplaysDecision(t *testing.T) {
	s := startServer(t, Config{ReplayDepth: 8})
	tc := dialServer(t, s)
	tc.hello("dup")
	var last *Frame
	for i := uint64(1); i <= 20; i++ {
		last = tc.access(i, accessAddr(i))
	}
	// Duplicate of the newest seq: replayed, identical payload, no retrain.
	dup := tc.access(20, accessAddr(20))
	if dup.Type != FrameDecision || !dup.Replayed || !SameDecision(dup, last) {
		t.Fatalf("duplicate seq 20: %+v", dup)
	}
	// A seq far behind the replay window is stale.
	stale := tc.access(1, accessAddr(1))
	if stale.Type != FrameError || stale.Code != CodeStaleSeq {
		t.Fatalf("ancient duplicate: %+v", stale)
	}
	// Neither touched the learner: a fresh access continues the stream.
	if got := tc.access(21, accessAddr(21)); got.Type != FrameDecision || got.Seq != 21 {
		t.Fatalf("stream desynced after duplicates: %+v", got)
	}
}

func TestServerBusyWhenInflightSaturated(t *testing.T) {
	s := startServer(t, Config{MaxInflight: 4, RetryMs: 7})
	tc := dialServer(t, s)
	tc.hello("busy")
	// Saturate the global budget directly (simulating load from other
	// connections), then every access bounces with an explicit busy frame.
	s.inflight.Add(4)
	got := tc.access(1, accessAddr(1))
	if got.Type != FrameBusy || got.RetryMs != 7 || got.Seq != 1 {
		t.Fatalf("want busy/retry 7ms, got %+v", got)
	}
	if s.busyTotal.Value() == 0 {
		t.Fatal("busy counter not incremented")
	}
	// Budget released: the same access goes through and trains normally.
	s.inflight.Add(-4)
	if got := tc.access(1, accessAddr(1)); got.Type != FrameDecision {
		t.Fatalf("after release: %+v", got)
	}
}

func TestServerDegradedFallbackWhenInboxFull(t *testing.T) {
	cfg := Config{InboxDepth: 2}
	s, err := NewServer(cfg.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	s.gate = make(chan struct{})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	defer close(s.gate) // release held workers so Close can drain

	tc := dialServer(t, s)
	tc.hello("shed")
	// With the worker gated, the first access is pulled off the inbox and
	// parks at the gate; the next InboxDepth fill the inbox; one more must
	// shed to the degraded fallback — served inline by the reader, so it
	// answers even though every learner slot is stuck.
	for i := uint64(1); i <= 3; i++ {
		tc.send(&Frame{Type: FrameAccess, Seq: i, PC: 1, Addr: accessAddr(i)})
	}
	// Give the worker/inbox a moment to reach steady state, then overflow.
	deadline := time.Now().Add(2 * time.Second)
	for int(s.inflight.Load()) < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	tc.send(&Frame{Type: FrameAccess, Seq: 4, PC: 1, Addr: 0x5000})
	got := tc.recv()
	if got.Type != FrameDecision || !got.Degraded || got.Seq != 4 {
		t.Fatalf("want degraded decision for seq 4, got %+v", got)
	}
	// The fallback is the documented next-line policy.
	if len(got.Prefetch) != 1 || got.Prefetch[0] != 0x5040 {
		t.Fatalf("fallback prefetch %v, want [0x5040]", got.Prefetch)
	}
	if s.degradedTotal.Value() != 1 {
		t.Fatalf("degraded counter %d, want 1", s.degradedTotal.Value())
	}
	// Release the gate: the queued accesses drain as real decisions.
	for i := 0; i < 3; i++ {
		s.gate <- struct{}{}
		if got := tc.recv(); got.Type != FrameDecision || got.Degraded {
			t.Fatalf("queued access %d: %+v", i, got)
		}
	}
}

func TestServerPanicContainment(t *testing.T) {
	s := startServer(t, Config{})
	s.panicOnSeq = 3
	tc := dialServer(t, s)
	tc.hello("boom")
	tc.access(1, accessAddr(1))
	tc.access(2, accessAddr(2))
	got := tc.access(3, accessAddr(3))
	if got.Type != FrameError || got.Code != CodeSessionClosed {
		t.Fatalf("want session-closed error at the faulting seq, got %+v", got)
	}
	if s.panicsTotal.Value() != 1 {
		t.Fatalf("panic counter %d, want 1", s.panicsTotal.Value())
	}
	// The poisoned session is gone; other sessions are untouched and a
	// re-hello under the same id starts fresh.
	s.panicOnSeq = 0
	tc2 := dialServer(t, s)
	w := tc2.hello("boom")
	if w.Resumed || w.LastSeq != 0 {
		t.Fatalf("poisoned session not replaced: %+v", w)
	}
	if got := tc2.access(1, accessAddr(1)); got.Type != FrameDecision {
		t.Fatalf("fresh session after poison: %+v", got)
	}
}

func TestServerIdleSessionExpiry(t *testing.T) {
	s := startServer(t, Config{SessionTTL: 30 * time.Millisecond, ReapInterval: 10 * time.Millisecond})
	tc := dialServer(t, s)
	tc.hello("ttl")
	tc.access(1, accessAddr(1))
	tc.send(&Frame{Type: FrameBye})
	tc.c.Close()

	deadline := time.Now().Add(5 * time.Second)
	for s.store.count() != 0 || s.reapedTotal.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("idle session not reaped; %d live, %d reaped",
				s.store.count(), s.reapedTotal.Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Re-hello after expiry: a fresh session.
	tc2 := dialServer(t, s)
	if w := tc2.hello("ttl"); w.Resumed || w.LastSeq != 0 {
		t.Fatalf("expired session resumed: %+v", w)
	}
}

func TestServerAttachedSessionIsNotReaped(t *testing.T) {
	s := startServer(t, Config{SessionTTL: 20 * time.Millisecond, ReapInterval: 5 * time.Millisecond})
	tc := dialServer(t, s)
	tc.hello("pinned")
	time.Sleep(100 * time.Millisecond) // idle but attached: several TTLs pass
	if got := tc.access(1, accessAddr(1)); got.Type != FrameDecision {
		t.Fatalf("attached session expired under us: %+v", got)
	}
}

func TestServerProtocolErrors(t *testing.T) {
	s := startServer(t, Config{})
	// Access before hello.
	tc := dialServer(t, s)
	tc.send(&Frame{Type: FrameAccess, Seq: 1, Addr: 64})
	if got := tc.recv(); got.Type != FrameError || got.Code != CodeProtocol {
		t.Fatalf("access before hello: %+v", got)
	}
	// Garbage line after handshake.
	tc2 := dialServer(t, s)
	tc2.hello("proto")
	if _, err := tc2.c.Write([]byte("not json\n")); err != nil {
		t.Fatal(err)
	}
	if got := tc2.recv(); got.Type != FrameError || got.Code != CodeBadFrame {
		t.Fatalf("garbage frame: %+v", got)
	}
	// Ping/pong keeps a session alive.
	tc3 := dialServer(t, s)
	tc3.hello("ping")
	tc3.send(&Frame{Type: FramePing})
	if got := tc3.recv(); got.Type != FramePong {
		t.Fatalf("ping answered with %+v", got)
	}
}

func TestServerDrainRestoreWarmStart(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/prefetchd.snap"

	// Reference: an uninterrupted in-process learner over the full stream.
	ref, err := NewLearner(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const split, total = 1500, 3000

	cfg := Config{SnapshotPath: path}
	s1, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Start(); err != nil {
		t.Fatal(err)
	}
	tc := dialServer(t, s1)
	tc.hello("warm")
	for i := uint64(1); i <= split; i++ {
		pf, sh := ref.DecideAccess(&BatchAccess{Seq: i, PC: 0x400000, Addr: accessAddr(i)})
		if got := tc.access(i, accessAddr(i)); !SameDecision(got, &Frame{Prefetch: pf, Shadow: sh}) {
			t.Fatalf("pre-drain seq %d diverged", i)
		}
	}
	// Graceful drain writes the final snapshot.
	before := runtime.NumGoroutine()
	_ = before
	if err := s1.Close(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Reboot from the snapshot: sessions restore before the socket opens.
	s2 := startServer(t, cfg)
	if s2.RestoredSessions() != 1 {
		t.Fatalf("restored %d sessions, want 1", s2.RestoredSessions())
	}
	tc2 := dialServer(t, s2)
	w := tc2.hello("warm")
	if !w.Resumed || w.LastSeq != split {
		t.Fatalf("warm attach: resumed=%v lastSeq=%d, want true/%d", w.Resumed, w.LastSeq, split)
	}
	// The restored learner continues bit-identically to the never-killed
	// reference — the durability contract the chaos harness leans on.
	for i := uint64(split + 1); i <= total; i++ {
		pf, sh := ref.DecideAccess(&BatchAccess{Seq: i, PC: 0x400000, Addr: accessAddr(i)})
		if got := tc2.access(i, accessAddr(i)); !SameDecision(got, &Frame{Prefetch: pf, Shadow: sh}) {
			t.Fatalf("post-restore seq %d diverged from uninterrupted reference", i)
		}
	}
}

func TestServerCloseReleasesGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	s, err := NewServer(Config{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	var conns []*testConn
	for i := 0; i < 4; i++ {
		tc := dialServer(t, s)
		tc.hello(string(rune('a' + i)))
		tc.access(1, accessAddr(1))
		conns = append(conns, tc)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Readers, workers, reaper and accept loop must all be gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after Close: %d > baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// New dials are refused once draining.
	if c, err := net.Dial("tcp", s.Addr().String()); err == nil {
		c.Close()
		t.Fatal("listener still accepting after Close")
	}
}
