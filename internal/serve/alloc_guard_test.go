//go:build !race

package serve

import (
	"net"
	"testing"
	"time"

	"semloc/internal/core"
)

// discardConn is a net.Conn whose writes succeed and vanish, so a
// connWriter flushes without a peer (connWriter calls nothing else).
type discardConn struct{ net.Conn }

func (discardConn) Write(b []byte) (int, error)      { return len(b), nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// TestSteadyStateWorkerZeroAlloc pins the daemon between codec and
// learner at 0 allocs/op once warm: a session worker answering a
// 16-access batch, a single access frame and a resend answered from the
// replay ring, and the connection reader's busy and degraded replies,
// each encoded through a connWriter. Race builds are excluded: the
// detector perturbs allocation counts, and sync.Pool drops frames at
// random under it.
func TestSteadyStateWorkerZeroAlloc(t *testing.T) {
	srv, err := NewServer(Config{ReplayDepth: 4, InboxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The gate holds a worker on its first queued request, so a second
	// fills its inbox (the degraded rung); process is called directly.
	srv.gate = make(chan struct{})
	w := newConnWriter(discardConn{}, time.Second, writeCoalesceBytes, time.Hour, nil)
	newSess := func(id string) *session {
		l, err := NewLearner(core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return newSession(id, l, srv)
	}
	sess, full := newSess("worker"), newSess("full")
	defer func() {
		close(srv.gate)
		sess.close()
		full.close()
		w.close()
	}()

	var seq uint64
	batch := &Frame{Type: FrameBatch, Accesses: make([]BatchAccess, 16)}
	serveBatch := func() {
		for i := range batch.Accesses {
			seq++
			batch.Accesses[i] = BatchAccess{Seq: seq, PC: 0x400000, Addr: accessAddr(seq)}
		}
		sess.process(inboxItem{fr: batch, conn: w})
	}
	single := &Frame{Type: FrameAccess, Accesses: make([]BatchAccess, 1)}
	serveSingle := func() {
		seq++
		single.Accesses[0] = BatchAccess{Seq: seq, PC: 0x400000, Addr: accessAddr(seq)}
		sess.process(inboxItem{fr: single, conn: w})
	}
	resend := &Frame{Type: FrameBatch}
	serveResend := func() {
		sess.process(inboxItem{fr: resend, conn: w})
	}

	// Warm: every ring slot and the scratch reach their steady capacity.
	for i := 0; i < 256; i++ {
		serveBatch()
		serveSingle()
	}
	serveBatch()
	resend.Accesses = append(resend.Accesses, batch.Accesses...)
	serveResend()
	addrs := 0
	for _, d := range sess.sc.res {
		if !d.Replayed {
			t.Fatalf("resend seq %d not answered from the ring", d.Seq)
		}
		addrs += len(d.Prefetch) + len(d.Shadow)
	}
	if addrs == 0 {
		t.Fatal("warm decisions carry no addresses: the guard would not cover their copies")
	}
	for _, c := range []struct {
		name string
		fn   func()
	}{{"16-access batch", serveBatch}, {"single access", serveSingle}, {"resend from the ring", serveResend}} {
		if n := testing.AllocsPerRun(200, c.fn); n != 0 {
			t.Errorf("worker answering a %s allocates %.1f/op, want 0", c.name, n)
		}
	}

	// The reader's rungs. A request frame comes from the pool and goes
	// back to it, as on a live connection.
	sc := new(replyScratch)
	reader := func(sess *session, n int) func() {
		return func() {
			fr := srv.getFrame()
			fr.Type = FrameBatch
			fr.Accesses = append(fr.Accesses[:0], batch.Accesses[:n]...)
			srv.handleAccess(sess, inboxItem{fr: fr, conn: w}, sc)
		}
	}
	srv.inflight.Store(int64(srv.cfg.MaxInflight))
	busy := reader(sess, 1)
	busy()
	if n := testing.AllocsPerRun(200, busy); n != 0 {
		t.Errorf("reader's busy reply allocates %.1f/op, want 0", n)
	}
	if srv.busyTotal.Value() == 0 {
		t.Fatal("no busy reply was sent")
	}
	srv.inflight.Store(0)

	// full's worker takes one request and waits at the gate; the next
	// fills its one-deep inbox.
	reader(full, 16)()
	for deadline := time.Now().Add(5 * time.Second); len(full.inbox) > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the gated worker never took its request")
		}
	}
	reader(full, 16)()
	degraded := reader(full, 16)
	degraded()
	if n := testing.AllocsPerRun(200, degraded); n != 0 {
		t.Errorf("reader's degraded reply allocates %.1f/op, want 0", n)
	}
	if srv.degradedTotal.Value() == 0 {
		t.Fatal("no degraded reply was sent")
	}
}
