package serve

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"testing"
	"time"
)

// wireScript drives one raw connection and records every reply line
// byte for byte, under "# step" headers, into a shared transcript.
type wireScript struct {
	t   *testing.T
	c   net.Conn
	r   *bufio.Reader
	out *bytes.Buffer
}

func dialScript(t *testing.T, s *Server, out *bytes.Buffer) *wireScript {
	t.Helper()
	c, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &wireScript{t: t, c: c, r: bufio.NewReader(c), out: out}
}

func (w *wireScript) step(name string) { fmt.Fprintf(w.out, "# %s\n", name) }

func (w *wireScript) send(f *Frame) {
	w.t.Helper()
	b, err := encodeFrame(f)
	if err != nil {
		w.t.Fatal(err)
	}
	if _, err := w.c.Write(b); err != nil {
		w.t.Fatal(err)
	}
}

// expect reads n reply lines into the transcript.
func (w *wireScript) expect(n int) {
	w.t.Helper()
	for i := 0; i < n; i++ {
		w.c.SetReadDeadline(time.Now().Add(5 * time.Second))
		line, err := w.r.ReadBytes('\n')
		if err != nil {
			w.t.Fatalf("reading reply %d/%d: %v", i+1, n, err)
		}
		w.out.Write(line)
	}
}

// exchange sends one frame and records its one reply.
func (w *wireScript) exchange(f *Frame) {
	w.t.Helper()
	w.send(f)
	w.expect(1)
}

// goldenAccess is the scripted access stream: the shared strided scan,
// with every payload field populated and hints on every fourth access.
func goldenAccess(seq uint64) BatchAccess {
	a := BatchAccess{
		Seq: seq, PC: 0x400000 + (seq%7)*4, Addr: accessAddr(seq), Value: seq * 3,
		Reg: seq % 5, BranchHist: uint16(seq * 11), Store: seq%9 == 0,
	}
	if seq%4 == 0 {
		a.Hints = &Hints{Valid: true, TypeID: uint16(seq % 3), LinkOffset: 8, RefForm: 1}
	}
	return a
}

func goldenSingle(seq uint64) *Frame {
	a := goldenAccess(seq)
	return &Frame{Type: FrameAccess, Seq: seq, PC: a.PC, Addr: a.Addr, Value: a.Value,
		Reg: a.Reg, BranchHist: a.BranchHist, Store: a.Store, Hints: a.Hints}
}

func goldenBatch(first uint64, n int) *Frame {
	f := &Frame{Type: FrameBatch}
	for i := 0; i < n; i++ {
		f.Accesses = append(f.Accesses, goldenAccess(first+uint64(i)))
	}
	return f
}

// waitInbox waits until the server's only session holds exactly n
// requests in its inbox.
func waitInbox(t *testing.T, s *Server, n int) {
	t.Helper()
	sess := s.store.all()[0]
	deadline := time.Now().Add(5 * time.Second)
	for len(sess.inbox) != n {
		if time.Now().After(deadline) {
			t.Fatalf("session %s inbox never settled at %d", sess.id, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWireGoldenTranscript pins the daemon's reply bytes: a scripted set
// of sessions covers every reply shape the serving path renders (fresh,
// replayed and stale single accesses; busy, degraded and poisoned replies,
// single and batch; unnegotiated, oversized, full, straddling and
// all-stale batches; an access frame on a batching connection), and every
// reply line must equal testdata/wire.golden byte for byte.
func TestWireGoldenTranscript(t *testing.T) {
	var out bytes.Buffer

	s := startServer(t, Config{ReplayDepth: 2, MaxBatch: 8, MaxInflight: 16, RetryMs: 7})

	w := dialScript(t, s, &out)
	w.step("single: hello without a batch ask")
	w.exchange(&Frame{Type: FrameHello, Version: ProtocolVersion, Session: "single"})
	w.step("single: fresh accesses 1..40")
	for seq := uint64(1); seq <= 40; seq++ {
		w.exchange(goldenSingle(seq))
	}
	w.step("single: replayed duplicates of 40 and 39")
	w.exchange(goldenSingle(40))
	w.exchange(goldenSingle(39))
	w.step("single: evicted duplicate 38")
	w.exchange(goldenSingle(38))
	w.step("single: batch on a connection that never negotiated one")
	w.exchange(goldenBatch(41, 2))
	w.step("single: busy from a saturated in-flight budget")
	s.inflight.Add(16)
	w.exchange(goldenSingle(41))
	s.inflight.Add(-16)
	w.step("single: fresh access after busy")
	w.exchange(goldenSingle(41))

	b := dialScript(t, s, &out)
	b.step("batched: hello asking for 8")
	b.exchange(&Frame{Type: FrameHello, Version: ProtocolVersion, Session: "batched", Batch: 8})
	b.step("batched: full batches 1..8 and 9..16")
	b.exchange(goldenBatch(1, 8))
	b.exchange(goldenBatch(9, 8))
	b.step("batched: oversized batch of 9")
	b.exchange(goldenBatch(17, 9))
	b.step("batched: results batch sent by the client")
	b.exchange(&Frame{Type: FrameBatch, Results: []BatchDecision{{Seq: 17}}})
	b.step("batched: access frame 17 on a batching connection")
	b.exchange(goldenSingle(17))
	b.step("batched: fresh batch 18..25")
	b.exchange(goldenBatch(18, 8))
	b.step("batched: resend 24..31 straddling the high-water mark")
	b.exchange(goldenBatch(24, 8))
	b.step("batched: all-stale batch 1..8")
	b.exchange(goldenBatch(1, 8))
	b.step("batched: half-stale, half-replayed batch 14..21")
	b.exchange(goldenBatch(14, 8))
	b.step("batched: replayed access frame 30")
	b.exchange(goldenSingle(30))
	b.step("batched: stale access frame 5")
	b.exchange(goldenSingle(5))
	b.step("batched: busy batch and busy access from a saturated in-flight budget")
	s.inflight.Add(16)
	b.exchange(goldenBatch(32, 8))
	b.exchange(goldenSingle(32))
	s.inflight.Add(-16)
	b.step("batched: fresh batch 32..39 after busy")
	b.exchange(goldenBatch(32, 8))
	b.step("batched: batch of one, 40")
	b.exchange(goldenBatch(40, 1))

	// A gated worker: the first access parks at the gate, the next two
	// fill the inbox, and everything after that sheds to the fallback.
	cfg := Config{InboxDepth: 2, MaxBatch: 8, Listen: "127.0.0.1:0"}
	gated, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gated.gate = make(chan struct{})
	if err := gated.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gated.Close() })
	defer close(gated.gate) // release held workers so Close can drain

	g := dialScript(t, gated, &out)
	g.step("shed: hello asking for 8")
	g.exchange(&Frame{Type: FrameHello, Version: ProtocolVersion, Session: "shed", Batch: 8})
	// The reader answers a ping only after enqueueing everything sent
	// before it, so each pong marks the inbox state the next step needs.
	g.step("shed: access 1 parks at the gate")
	g.send(goldenSingle(1))
	g.exchange(&Frame{Type: FramePing})
	waitInbox(t, gated, 0)
	g.step("shed: accesses 2 and 3 fill the inbox")
	g.send(goldenSingle(2))
	g.send(goldenSingle(3))
	g.exchange(&Frame{Type: FramePing})
	g.step("shed: degraded access 4 and degraded batch 5..8")
	g.exchange(goldenSingle(4))
	g.exchange(goldenBatch(5, 4))
	g.step("shed: queued accesses 1..3 drain through the worker")
	for i := 0; i < 3; i++ {
		gated.gate <- struct{}{}
		g.expect(1)
	}

	// Injected learner panics poison a session mid-request.
	poisoned := startServer(t, Config{MaxBatch: 8})
	poisoned.panicOnSeq = 12
	p := dialScript(t, poisoned, &out)
	p.step("poison: batched session panics inside batch 9..16")
	p.exchange(&Frame{Type: FrameHello, Version: ProtocolVersion, Session: "poison-batch", Batch: 8})
	p.exchange(goldenBatch(1, 8))
	p.exchange(goldenBatch(9, 8))
	p.step("poison: access 17 after the batched session closed")
	p.exchange(goldenSingle(17))
	q := dialScript(t, poisoned, &out)
	q.step("poison: single session panics at access 12")
	q.exchange(&Frame{Type: FrameHello, Version: ProtocolVersion, Session: "poison-single"})
	for seq := uint64(1); seq <= 12; seq++ {
		q.exchange(goldenSingle(seq))
	}

	want, err := os.ReadFile("testdata/wire.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := out.Bytes()
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("wire transcript diverges from testdata/wire.golden at line %d:\ngot:  %s\nwant: %s\nfull transcript:\n%s",
				i+1, g, w, got)
		}
	}
}
