package serve

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"semloc/internal/core"
	"semloc/internal/harness"
	"semloc/internal/obs"
)

// Config parameterizes a Server. The zero value plus Listen is usable;
// withDefaults fills the rest.
type Config struct {
	// Listen is the TCP address for the serving socket ("127.0.0.1:0" for
	// an ephemeral test port).
	Listen string

	// SessionTTL expires detached sessions idle for longer than this;
	// ReapInterval is how often the reaper scans (default TTL/4).
	SessionTTL   time.Duration
	ReapInterval time.Duration

	// InboxDepth bounds each session's inbox; a full inbox sheds the
	// access with an immediate degraded fallback decision. ReplayDepth
	// bounds the per-session duplicate-decision cache.
	InboxDepth  int
	ReplayDepth int

	// MaxInflight caps accesses accepted but not yet answered across all
	// sessions (each batched access counts one); beyond it clients get an
	// explicit busy frame.
	MaxInflight int
	// RetryMs is the backoff hint carried by busy frames.
	RetryMs int

	// MaxBatch caps the batch size granted at hello: 0 grants up to the
	// protocol limit (serve.MaxBatch), negative disables batching (every
	// hello is granted 0 and batch frames are protocol errors).
	MaxBatch int

	// ReadTimeout bounds the gap between frames on a connection (a dead
	// peer is collected instead of pinning a reader goroutine forever);
	// WriteTimeout bounds one reply write.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration

	// SnapshotPath, when set, enables durability: restore-on-boot plus
	// periodic (SnapshotInterval) and on-shutdown snapshots.
	SnapshotPath     string
	SnapshotInterval time.Duration

	// Learner configures fresh sessions' prefetchers (zero: core defaults).
	Learner core.Config
	// BlockShift is the cache-block shift used by the degraded fallback
	// (default 6: 64-byte lines).
	BlockShift uint

	// Shards is the session-store shard count.
	Shards int

	// Reg receives serving metrics; nil gets a private registry.
	Reg *obs.Registry
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)

	// Trace enables serving-path latency instrumentation (stage
	// histograms, sampled request spans, slow-request log). Nil is the
	// zero-overhead disabled path: the per-frame code reads no clocks and
	// allocates nothing beyond the uninstrumented daemon.
	Trace *TraceConfig
}

func (c Config) withDefaults() Config {
	if c.SessionTTL <= 0 {
		c.SessionTTL = 5 * time.Minute
	}
	if c.ReapInterval <= 0 {
		c.ReapInterval = c.SessionTTL / 4
	}
	if c.InboxDepth <= 0 {
		c.InboxDepth = 64
	}
	if c.ReplayDepth <= 0 {
		c.ReplayDepth = 64
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 1024
	}
	if c.RetryMs <= 0 {
		c.RetryMs = 50
	}
	switch {
	case c.MaxBatch < 0:
		c.MaxBatch = 0
	case c.MaxBatch == 0 || c.MaxBatch > MaxBatch:
		c.MaxBatch = MaxBatch
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 60 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.SnapshotInterval <= 0 {
		c.SnapshotInterval = 30 * time.Second
	}
	if c.BlockShift == 0 {
		c.BlockShift = 6
	}
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.Reg == nil {
		c.Reg = obs.NewRegistry()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is the prefetch-serving daemon core: a TCP accept loop feeding
// per-session workers, with idle reaping, snapshot durability and a
// graceful drain. Lifecycle: New → Start → (serve) → Close.
type Server struct {
	cfg   Config
	store *sessionStore
	trace *tracer // nil = uninstrumented per-frame path

	ln       net.Listener
	draining atomic.Bool

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	loops    sync.WaitGroup // accept loop, reaper, snapshotter
	readers  sync.WaitGroup // one per live connection
	bg       chan struct{}  // closed to stop reaper/snapshotter
	stopOnce sync.Once

	inflight atomic.Int64

	// framePool recycles decoded request frames between the connection
	// readers and the session workers, keeping the steady-state decode
	// path allocation-free.
	framePool sync.Pool

	// restored reports how many sessions the boot snapshot rebuilt.
	restored int

	// Test-only fault injection, set before Start: gate, when non-nil,
	// makes every session worker wait for a token before processing an
	// item (deterministic inbox filling for backpressure tests);
	// panicOnSeq, when non-zero, panics inside process() on the request
	// holding that seq (exercises the containment path without corrupting
	// real state).
	gate       chan struct{}
	panicOnSeq uint64

	decisionsTotal *obs.Counter
	degradedTotal  *obs.Counter
	busyTotal      *obs.Counter
	replayedTotal  *obs.Counter
	staleTotal     *obs.Counter
	panicsTotal    *obs.Counter
	badFrames      *obs.Counter
	snapsTotal     *obs.Counter
	snapErrors     *obs.Counter
	reapedTotal    *obs.Counter
	coalescedTotal *obs.Counter
	sessionsGauge  *obs.Gauge
	connsGauge     *obs.Gauge
	inflightGauge  *obs.Gauge
}

// getFrame takes a reusable frame from the pool.
func (s *Server) getFrame() *Frame {
	if v := s.framePool.Get(); v != nil {
		return v.(*Frame)
	}
	return new(Frame)
}

// putFrame returns a request frame after its last read. Frames keep their
// slice capacities and Hints allocations across reuse.
func (s *Server) putFrame(f *Frame) {
	if f == nil {
		return
	}
	f.reset()
	s.framePool.Put(f)
}

// NewServer builds a server and, when SnapshotPath is set, restores the
// boot snapshot (warm start) before any socket exists — a caller flips
// readiness only after Start returns, so clients never reach a learner
// that is still loading state.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		store: newSessionStore(cfg.Shards),
		trace: newTracer(cfg.Trace, cfg.Reg, cfg.Logf),
		conns: make(map[net.Conn]struct{}),
		bg:    make(chan struct{}),
	}
	reg := cfg.Reg
	s.decisionsTotal = reg.Counter("serve_decisions_total", "prefetch decisions computed by session learners")
	s.degradedTotal = reg.Counter("serve_degraded_total", "accesses shed to the degraded fallback policy (inbox full)")
	s.busyTotal = reg.Counter("serve_busy_total", "accesses refused with a busy frame (global in-flight limit)")
	s.replayedTotal = reg.Counter("serve_replayed_total", "duplicate accesses answered from the replay cache")
	s.staleTotal = reg.Counter("serve_stale_seq_total", "duplicate accesses older than the replay cache")
	s.panicsTotal = reg.Counter("serve_session_panics_total", "sessions poisoned by a contained learner panic")
	s.badFrames = reg.Counter("serve_bad_frames_total", "connection frames that failed to decode or validate")
	s.snapsTotal = reg.Counter("serve_snapshots_total", "snapshots written")
	s.snapErrors = reg.Counter("serve_snapshot_errors_total", "snapshot writes that failed")
	s.reapedTotal = reg.Counter("serve_sessions_reaped_total", "idle sessions expired by the reaper")
	s.coalescedTotal = reg.Counter("serve_coalesced_writes_total", "reply frames appended to an already-pending write buffer (syscalls saved by coalescing)")
	s.sessionsGauge = reg.Gauge("serve_sessions", "live sessions")
	s.connsGauge = reg.Gauge("serve_connections", "open client connections")
	s.inflightGauge = reg.Gauge("serve_inflight", "accesses accepted but not yet answered")

	if cfg.SnapshotPath != "" {
		snap, err := LoadSnapshot(cfg.SnapshotPath)
		if err != nil {
			return nil, err
		}
		if snap != nil {
			for _, ss := range snap.Sessions {
				sess, err := restoreSession(ss, s)
				if err != nil {
					return nil, err
				}
				s.store.put(sess)
			}
			s.restored = len(snap.Sessions)
			cfg.Logf("serve: warm start: restored %d session(s) from %s", s.restored, cfg.SnapshotPath)
		}
	}
	s.sessionsGauge.Set(float64(s.store.count()))
	return s, nil
}

// RestoredSessions reports how many sessions the boot snapshot rebuilt.
func (s *Server) RestoredSessions() int { return s.restored }

// Start binds the listener and launches the accept loop, the idle reaper
// and (when configured) the periodic snapshotter.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Listen)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", s.cfg.Listen, err)
	}
	s.ln = ln
	s.loops.Add(1)
	go s.acceptLoop()
	s.loops.Add(1)
	go s.reapLoop()
	if s.cfg.SnapshotPath != "" {
		s.loops.Add(1)
		go s.snapshotLoop()
	}
	return nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close drains gracefully: stop accepting, sever connections, wait for
// readers, let every session worker finish what it already accepted, then
// write the final snapshot. Safe to call more than once.
func (s *Server) Close() error {
	s.teardown()
	var err error
	if s.cfg.SnapshotPath != "" {
		if err = s.writeSnapshot(); err != nil {
			s.cfg.Logf("serve: final snapshot failed: %v", err)
		}
	}
	return err
}

// teardown is the shared stop sequence: stop accepting, sever
// connections, wait for readers, stop the background loops, and drain
// every session worker. Idempotent.
func (s *Server) teardown() {
	s.draining.Store(true)
	s.stopOnce.Do(func() {
		if s.ln != nil {
			s.ln.Close()
		}
		s.connMu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.connMu.Unlock()
		s.readers.Wait()
		close(s.bg)
		s.loops.Wait()
		for _, sess := range s.store.all() {
			sess.close()
		}
	})
}

// Abort terminates like a crash: connections sever, goroutines stop, but
// no final snapshot is written — a restart sees only what the last
// periodic snapshot captured. The chaos tests use it to prove the
// restore path tolerates ungraceful death.
func (s *Server) Abort() { s.teardown() }

// WriteSnapshot forces one snapshot write now (the periodic loop calls
// the same path on its ticker).
func (s *Server) WriteSnapshot() error {
	if s.cfg.SnapshotPath == "" {
		return fmt.Errorf("serve: no snapshot path configured")
	}
	return s.writeSnapshot()
}

// Snapshot captures every live session, sorted by id.
func (s *Server) Snapshot() *Snapshot {
	sessions := s.store.all()
	snap := &Snapshot{}
	for _, sess := range sessions {
		snap.Sessions = append(snap.Sessions, sess.snapshot())
	}
	return snap
}

func (s *Server) writeSnapshot() error {
	if err := SaveSnapshot(s.cfg.SnapshotPath, s.Snapshot()); err != nil {
		s.snapErrors.Inc()
		return err
	}
	s.snapsTotal.Inc()
	return nil
}

func (s *Server) snapshotLoop() {
	defer s.loops.Done()
	t := time.NewTicker(s.cfg.SnapshotInterval)
	defer t.Stop()
	for {
		select {
		case <-s.bg:
			return
		case <-t.C:
			if err := s.writeSnapshot(); err != nil {
				s.cfg.Logf("serve: periodic snapshot failed: %v", err)
			}
		}
	}
}

func (s *Server) reapLoop() {
	defer s.loops.Done()
	t := time.NewTicker(s.cfg.ReapInterval)
	defer t.Stop()
	for {
		select {
		case <-s.bg:
			return
		case now := <-t.C:
			dead := s.store.reapIdle(s.cfg.SessionTTL, now)
			for _, sess := range dead {
				sess.close()
				s.reapedTotal.Inc()
			}
			if len(dead) > 0 {
				s.cfg.Logf("serve: reaped %d idle session(s)", len(dead))
			}
			s.sessionsGauge.Set(float64(s.store.count()))
			s.inflightGauge.Set(float64(s.inflight.Load()))
		}
	}
}

// noteSessionPanic records a contained learner panic and unlinks the
// poisoned session so the next hello under the same id starts fresh.
func (s *Server) noteSessionPanic(sess *session, err error) {
	s.panicsTotal.Inc()
	s.store.remove(sess)
	s.cfg.Logf("serve: session %s poisoned by contained panic: %v", sess.id, err)
}

func (s *Server) acceptLoop() {
	defer s.loops.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed (drain) or fatal; either way stop accepting
		}
		s.connMu.Lock()
		if s.draining.Load() {
			s.connMu.Unlock()
			c.Close()
			continue
		}
		s.conns[c] = struct{}{}
		// Registering the reader under connMu means Close() either sees
		// this connection in the map (and severs it) or sees draining set
		// before we got here — readers.Wait() can never miss a reader.
		s.readers.Add(1)
		s.connMu.Unlock()
		s.connsGauge.Add(1)
		go func(c net.Conn) {
			defer s.readers.Done()
			// A panic in connection handling takes down this connection
			// only, never the daemon.
			if err := harness.Safely(func() error {
				s.handleConn(c)
				return nil
			}); err != nil {
				s.cfg.Logf("serve: connection handler panic contained: %v", err)
			}
			c.Close()
			s.connMu.Lock()
			delete(s.conns, c)
			s.connMu.Unlock()
			s.connsGauge.Add(-1)
		}(c)
	}
}

// handleConn runs one connection: hello/welcome handshake (negotiating
// the batch size), then a frame loop under a per-frame read deadline.
func (s *Server) handleConn(c net.Conn) {
	w := newConnWriter(c, s.cfg.WriteTimeout, writeCoalesceBytes, writeCoalesceDelay, s.coalescedTotal)
	defer w.close()
	r := NewFrameReader(c)

	c.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
	first, err := r.Read()
	if err != nil {
		s.badFrames.Inc()
		w.write(&Frame{Type: FrameError, Code: CodeBadFrame, Msg: fmt.Sprintf("reading hello: %v", err)})
		return
	}
	if first.Type != FrameHello {
		w.write(&Frame{Type: FrameError, Code: CodeProtocol, Msg: fmt.Sprintf("expected hello, got %s", first.Type)})
		return
	}
	if s.draining.Load() {
		w.write(&Frame{Type: FrameError, Code: CodeShuttingDown, Msg: "draining"})
		return
	}
	// Grant the smaller of what the client asked for and the server cap.
	// Old clients never set Batch and are granted 0: the connection
	// behaves exactly as before batching existed.
	batch := first.Batch
	if batch > s.cfg.MaxBatch {
		batch = s.cfg.MaxBatch
	}
	sess, existed, err := s.store.getOrCreate(first.Session, func() (*session, error) {
		l, err := NewLearner(s.cfg.Learner)
		if err != nil {
			return nil, err
		}
		return newSession(first.Session, l, s), nil
	})
	if err != nil {
		w.write(&Frame{Type: FrameError, Code: CodeProtocol, Msg: fmt.Sprintf("creating session: %v", err)})
		return
	}
	lastSeq := sess.attach(w)
	defer sess.detach(w)
	s.sessionsGauge.Set(float64(s.store.count()))
	if !w.write(&Frame{Type: FrameWelcome, Session: sess.id, LastSeq: lastSeq, Resumed: existed, Batch: batch}) {
		return
	}

	for {
		c.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		// With tracing on, split the decode cost out of the read (the wait
		// for bytes is client think-time, not serving latency). Frames
		// decode into pooled storage; ownership passes to the session
		// worker on enqueue and returns to the pool at every other exit.
		fr := s.getFrame()
		var (
			decodeDur time.Duration
			err       error
		)
		if s.trace != nil {
			decodeDur, err = r.ReadTimedInto(fr)
		} else {
			err = r.ReadInto(fr)
		}
		if err != nil {
			s.putFrame(fr)
			// io errors (peer gone, deadline, drain-close) end the
			// connection silently; decode errors get one parting error
			// frame — after a framing desync the stream is unusable.
			if _, ok := err.(net.Error); !ok {
				s.badFrames.Inc()
				w.write(&Frame{Type: FrameError, Code: CodeBadFrame, Msg: err.Error()})
			}
			return
		}
		switch fr.Type {
		case FrameAccess, FrameBatch:
			if fr.Type == FrameAccess {
				batchOfOne(fr)
			} else if batch == 0 || len(fr.Accesses) == 0 || len(fr.Accesses) > batch {
				msg := "batch frame on a connection that did not negotiate batching"
				switch {
				case len(fr.Accesses) == 0:
					msg = "batch frame without accesses"
				case batch > 0:
					msg = fmt.Sprintf("batch of %d exceeds the negotiated size %d", len(fr.Accesses), batch)
				}
				w.write(&Frame{Type: FrameError, Code: CodeProtocol, Msg: msg})
				s.putFrame(fr)
				continue
			}
			it := inboxItem{fr: fr, conn: w}
			if s.trace != nil {
				it.arrival = time.Now()
				it.decodeDur = decodeDur
				it.sampled, it.spanStart = s.trace.sample(decodeDur)
			}
			s.handleAccess(sess, it)
		case FramePing:
			w.write(&Frame{Type: FramePong})
			s.putFrame(fr)
		case FrameStats:
			st := sess.stats()
			w.write(&Frame{Type: FrameStats, Stats: &st})
			s.putFrame(fr)
		case FrameExplain:
			rep := sess.explain(fr.TopK)
			s.putFrame(fr)
			if rep == nil {
				w.write(&Frame{Type: FrameError, Code: CodeSessionClosed,
					Msg: "session closed or expired; reconnect with a new hello"})
				continue
			}
			w.write(&Frame{Type: FrameExplain, Explain: rep})
		case FrameBye:
			s.putFrame(fr)
			return
		default:
			w.write(&Frame{Type: FrameError, Code: CodeProtocol,
				Msg: fmt.Sprintf("unexpected %s frame after handshake", fr.Type)})
			s.putFrame(fr)
		}
	}
}

// batchOfOne moves an access frame's payload into Accesses[0], so every
// request past the connection reader is a batch; the frame keeps its type,
// which picks the reply shape. The Hints pointer moves rather than copies,
// and the slot's parked Hints moves back to the frame, so pooled frames
// keep recycling the same allocations.
func batchOfOne(fr *Frame) {
	var a *BatchAccess
	fr.Accesses, a = growAccess(fr.Accesses[:0])
	spare := a.spareHints
	*a = fr.Access()
	if fr.Hints != nil {
		fr.Hints, fr.spareHints = nil, spare
	} else {
		a.spareHints = spare
	}
}

// handleAccess walks the degradation ladder for one request (a batch
// holds one inbox slot but counts every access against the global
// in-flight budget):
//
//  1. global in-flight budget exhausted → explicit busy frame
//  2. session inbox full → immediate degraded fallback decision(s)
//  3. session closed/expired → session-closed error (client re-hellos)
//  4. otherwise → enqueue for the session worker
func (s *Server) handleAccess(sess *session, it inboxItem) {
	fr, w := it.fr, it.conn
	n := int64(len(fr.Accesses))
	seq := fr.Accesses[0].Seq
	if cur := s.inflight.Add(n); cur > int64(s.cfg.MaxInflight) {
		s.inflight.Add(-n)
		s.busyTotal.Add(uint64(n))
		w.write(&Frame{Type: FrameBusy, Seq: seq, RetryMs: s.cfg.RetryMs})
		s.putFrame(fr)
		return
	}
	switch sess.enqueue(it) {
	case enqueueOK:
		// The worker owns the in-flight slots and the frame now.
	case enqueueFull:
		s.inflight.Add(-n)
		s.degradedTotal.Add(uint64(n))
		sess.degraded.Add(uint64(n))
		w.write(replyFrame(fr, fallbackDecisions(fr.Accesses, s.cfg.BlockShift)))
		s.putFrame(fr)
	case enqueueClosed:
		s.inflight.Add(-n)
		w.write(&Frame{Type: FrameError, Seq: seq, Code: CodeSessionClosed,
			Msg: "session closed or expired; reconnect with a new hello"})
		s.putFrame(fr)
	}
}

// replyFrame renders the decisions for request req: a batch request gets
// one batch frame; an access request gets its decision frame, or a
// stale-seq error frame when its seq left the replay cache.
func replyFrame(req *Frame, res []BatchDecision) *Frame {
	if req.Type == FrameBatch {
		return &Frame{Type: FrameBatch, Results: res}
	}
	d := res[0]
	if d.Code == CodeStaleSeq {
		return &Frame{Type: FrameError, Seq: d.Seq, Code: CodeStaleSeq,
			Msg: fmt.Sprintf("seq %d already applied and evicted from the replay cache", d.Seq)}
	}
	return &Frame{Type: FrameDecision, Seq: d.Seq, Prefetch: d.Prefetch, Shadow: d.Shadow,
		Degraded: d.Degraded, Replayed: d.Replayed}
}

// SessionStatsAll snapshots every live session's serving statistics,
// sorted by id (the /debug/serve HTTP endpoint renders it).
func (s *Server) SessionStatsAll() []SessionStats {
	sessions := s.store.all()
	out := make([]SessionStats, 0, len(sessions))
	for _, sess := range sessions {
		out = append(out, sess.stats())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// The connection writer's flush policy for worker replies: replies buffer
// until the session inbox goes idle, the buffer reaches writeCoalesceBytes,
// or writeCoalesceDelay passes — so pipelined clients get replies packed
// into fewer syscalls while lockstep clients still flush per reply.
const (
	writeCoalesceBytes = 4096
	writeCoalesceDelay = 200 * time.Microsecond
)

// connWriter serializes frame writes to one connection under a write
// deadline. Both the connection reader (busy/error/fallback replies) and
// the session worker (decisions) write through it concurrently. Frames
// encode into one reused buffer (zero steady-state encode allocations);
// worker replies may additionally linger in that buffer so consecutive
// replies to a pipelined client coalesce into one syscall — write order
// is preserved because every path appends to, and flushes, the same
// buffer.
type connWriter struct {
	mu      sync.Mutex
	c       net.Conn
	timeout time.Duration

	// Coalescing policy: buffer worker replies until coalesce bytes are
	// pending or the delay timer fires (the session worker also flushes
	// whenever its inbox goes idle).
	coalesce  int
	delay     time.Duration
	buf       []byte
	timer     *time.Timer
	armed     bool
	coalesced *obs.Counter // nil when uncounted (client-side tests)
}

func newConnWriter(c net.Conn, timeout time.Duration, coalesce int, delay time.Duration, coalesced *obs.Counter) *connWriter {
	return &connWriter{c: c, timeout: timeout, coalesce: coalesce, delay: delay, coalesced: coalesced}
}

// write appends one frame and flushes everything pending, reporting
// success. Failures (peer gone, frame invalid) are swallowed: the
// reader's next Read surfaces the broken connection, and the client's
// retry discipline recovers the decision.
func (w *connWriter) write(f *Frame) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.appendLocked(f) {
		return false
	}
	return w.flushLocked()
}

// writeq appends one worker reply under the coalescing policy: flush only
// once the buffer crosses the byte threshold. The caller (session worker)
// follows up with flush() when its inbox is idle or armFlush() when more
// replies are coming.
func (w *connWriter) writeq(f *Frame) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.buf) > 0 && w.coalesced != nil {
		w.coalesced.Inc()
	}
	if !w.appendLocked(f) {
		return false
	}
	if len(w.buf) >= w.coalesce {
		return w.flushLocked()
	}
	return true
}

// flush writes out anything pending.
func (w *connWriter) flush() {
	w.mu.Lock()
	w.flushLocked()
	w.mu.Unlock()
}

// armFlush schedules the delay-deadline flush for bytes left pending, so
// a reply never waits on the next inbox item for more than the configured
// delay even if the pipeline stalls.
func (w *connWriter) armFlush() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.buf) == 0 || w.armed {
		return
	}
	w.armed = true
	if w.timer == nil {
		w.timer = time.AfterFunc(w.delay, w.timedFlush)
	} else {
		w.timer.Reset(w.delay)
	}
}

func (w *connWriter) timedFlush() {
	w.mu.Lock()
	w.flushLocked()
	w.mu.Unlock()
}

// close flushes any pending bytes and stops the flush timer.
func (w *connWriter) close() {
	w.mu.Lock()
	w.flushLocked()
	if w.timer != nil {
		w.timer.Stop()
	}
	w.mu.Unlock()
}

func (w *connWriter) appendLocked(f *Frame) bool {
	b, err := AppendFrame(w.buf, f)
	if err != nil {
		return false
	}
	w.buf = b
	return true
}

func (w *connWriter) flushLocked() bool {
	w.armed = false
	if len(w.buf) == 0 {
		return true
	}
	w.c.SetWriteDeadline(time.Now().Add(w.timeout))
	_, err := w.c.Write(w.buf)
	w.buf = w.buf[:0]
	return err == nil
}
