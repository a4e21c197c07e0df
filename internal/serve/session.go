package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"semloc/internal/core"
	"semloc/internal/harness"
)

// SessionSnapshot is one session's slice of a daemon snapshot: the learner
// state plus the exactly-once bookkeeping (last applied seq and the replay
// cache), so a client that resends an acked-but-unanswered access after a
// restart gets the original decision replayed instead of double-training
// the learner.
type SessionSnapshot struct {
	ID      string             `json:"id"`
	LastSeq uint64             `json:"last_seq"`
	Replay  []ReplayEntry      `json:"replay,omitempty"`
	Learner *core.LearnerState `json:"learner"`
}

// ReplayEntry is one cached decision, keyed by the access seq it answered.
type ReplayEntry struct {
	Seq      uint64   `json:"seq"`
	Prefetch []uint64 `json:"prefetch,omitempty"`
	Shadow   []uint64 `json:"shadow,omitempty"`
}

// inboxItem is one request awaiting the session worker (its frame's
// Accesses hold one access or a whole batch), together with the
// connection to answer on. The trailing fields carry per-frame timing when
// the server's tracer is enabled; with tracing off they stay zero and cost
// nothing (the item travels by value through a preallocated channel).
type inboxItem struct {
	fr   *Frame
	conn *connWriter

	arrival   time.Time     // frame fully decoded; inbox queue-wait starts here
	decodeDur time.Duration // DecodeFrame cost, measured on the reader
	spanStart time.Duration // span-epoch offset of decode start (sampled only)
	sampled   bool          // this request's span is recorded
}

// session is one client stream's server-side state: a learner, a bounded
// inbox drained by a dedicated worker goroutine, the exactly-once seq
// bookkeeping, and attachment to at most one connection at a time.
type session struct {
	id  string
	srv *Server

	// mu guards learner, lastSeq, replay, closed and inboxHW. The worker
	// holds it while processing; the snapshotter holds it while saving.
	mu      sync.Mutex
	learner *Learner
	lastSeq uint64
	replay  replayRing
	closed  bool
	// inboxHW is the deepest the bounded inbox ever got (serving stats).
	inboxHW int

	// Serving statistics (SessionStats). Atomics because degraded is
	// bumped from the connection reader while the worker runs.
	decisions atomic.Uint64
	degraded  atomic.Uint64
	replayedN atomic.Uint64

	inbox chan inboxItem
	done  chan struct{} // closed when the worker has exited

	// attached is the connection currently owning this session (nil when
	// detached). Guarded by attachMu, not mu: attachment changes must not
	// wait behind a long learner step.
	attachMu sync.Mutex
	attached *connWriter

	lastActive atomic.Int64 // unix nanos of the last touch

	// sc is the worker's reply scratch; only the worker goroutine touches
	// it.
	sc replyScratch
}

func newSession(id string, l *Learner, srv *Server) *session {
	s := &session{
		id:      id,
		srv:     srv,
		learner: l,
		inbox:   make(chan inboxItem, srv.cfg.InboxDepth),
		done:    make(chan struct{}),
	}
	s.replay.init(srv.cfg.ReplayDepth)
	s.touch()
	go s.work()
	return s
}

func (s *session) touch() { s.lastActive.Store(time.Now().UnixNano()) }

func (s *session) idleFor(now time.Time) time.Duration {
	return now.Sub(time.Unix(0, s.lastActive.Load()))
}

// attach makes conn the session's owner, stealing it from a previous
// connection if one is still attached (the common half-open case after a
// client-side reconnect: the new connection wins, writes to the old one
// fail and its reader exits on its own deadline).
func (s *session) attach(conn *connWriter) (lastSeq uint64) {
	s.attachMu.Lock()
	s.attached = conn
	s.attachMu.Unlock()
	s.touch()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSeq
}

// detach releases the session if conn still owns it.
func (s *session) detach(conn *connWriter) {
	s.attachMu.Lock()
	if s.attached == conn {
		s.attached = nil
	}
	s.attachMu.Unlock()
}

// enqueueResult classifies an enqueue attempt.
type enqueueResult int

const (
	enqueueOK enqueueResult = iota
	// enqueueFull: the bounded inbox is at capacity — the caller sheds
	// load with a degraded fallback decision instead of blocking.
	enqueueFull
	// enqueueClosed: the session expired or the daemon is draining.
	enqueueClosed
)

// enqueue offers one access to the worker without ever blocking the
// connection reader.
func (s *session) enqueue(it inboxItem) enqueueResult {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return enqueueClosed
	}
	select {
	case s.inbox <- it:
		if n := len(s.inbox); n > s.inboxHW {
			s.inboxHW = n
		}
		s.mu.Unlock()
		return enqueueOK
	default:
		s.mu.Unlock()
		return enqueueFull
	}
}

// stats snapshots the session's serving statistics, including the
// learner's health snapshot (taken under the session lock, so it is
// always consistent with a decision boundary — never mid-access).
func (s *session) stats() SessionStats {
	s.attachMu.Lock()
	attached := s.attached != nil
	s.attachMu.Unlock()
	s.mu.Lock()
	lastSeq, hw := s.lastSeq, s.inboxHW
	var lh *core.LearnerHealth
	if !s.closed {
		h := s.learner.Health()
		lh = &h
	}
	s.mu.Unlock()
	return SessionStats{
		ID:             s.id,
		Decisions:      s.decisions.Load(),
		Degraded:       s.degraded.Load(),
		Replayed:       s.replayedN.Load(),
		InboxHighWater: hw,
		LastSeq:        lastSeq,
		Attached:       attached,
		Learner:        lh,
	}
}

// explain builds the session's live learner-introspection report: the
// health snapshot plus the topK hottest contexts, captured under the
// session lock (so a concurrent worker never mutates the CST mid-scan).
// Returns nil when the session is closed.
func (s *session) explain(topK int) *ExplainReport {
	if topK <= 0 {
		topK = DefaultExplainContexts
	}
	if topK > MaxExplainContexts {
		topK = MaxExplainContexts
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	return &ExplainReport{
		Session:  s.id,
		Health:   s.learner.Health(),
		Contexts: s.learner.Explain(topK),
	}
}

// close stops the worker after it drains everything already accepted, and
// waits for it to exit. Idempotent.
func (s *session) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		return
	}
	s.closed = true
	close(s.inbox)
	s.mu.Unlock()
	<-s.done
}

// work is the session's single worker goroutine: it serializes all
// learner access, applies the exactly-once seq discipline, and answers on
// the item's connection. A panic in the learner is contained to this
// session: the panic is converted to a typed error, the session is marked
// closed, and every queued client gets an error frame instead of silence.
func (s *session) work() {
	defer close(s.done)
	for it := range s.inbox {
		if g := s.srv.gate; g != nil {
			<-g
		}
		err := harness.Safely(func() error {
			s.process(it)
			return nil
		})
		s.srv.inflight.Add(-int64(len(it.fr.Accesses)))
		if err == nil {
			s.srv.putFrame(it.fr)
			continue
		}
		// The session is poisoned: mark it closed so no further enqueues
		// land, close the inbox ourselves (close() may not have run), fail
		// the queued remainder, and exit. Never call s.close() here — it
		// waits on done, which this goroutine owns.
		s.mu.Lock()
		if !s.closed {
			s.closed = true
			close(s.inbox)
		}
		s.mu.Unlock()
		s.srv.noteSessionPanic(s, err)
		s.fail(it, err)
		s.srv.putFrame(it.fr)
		for it := range s.inbox {
			s.fail(it, err)
			s.srv.inflight.Add(-int64(len(it.fr.Accesses)))
			s.srv.putFrame(it.fr)
		}
		return
	}
}

// fail answers one queued request with a session-closed error.
func (s *session) fail(it inboxItem, err error) {
	it.conn.write(&Frame{
		Type: FrameError, Seq: it.fr.Accesses[0].Seq,
		Code: CodeSessionClosed, Msg: fmt.Sprintf("session %s: %v", s.id, err),
	})
}

// process applies one request under a single lock hold and a single inbox
// hop, per access under the exactly-once discipline:
//
//	seq == lastSeq+k (k>=1): fresh — train the learner, cache and reply
//	seq <= lastSeq, cached:  duplicate — replay the original decision
//	seq <= lastSeq, evicted: too old — stale-seq code
//
// The fresh tail is cached as one replay-ring span, so a resent batch
// after reconnect splits into Replayed items and (if the span was
// evicted) per-item stale-seq codes. Holding s.mu across the request
// means snapshots only ever observe batch-aligned learner state — a
// restore never lands mid-batch.
//
// Every decision is copied into the worker's scratch before the fresh
// span is written: the span overwrites the oldest ring slot in place, and
// a replayed prefix may live in exactly that slot.
func (s *session) process(it inboxItem) {
	accs := it.fr.Accesses
	s.touch()
	if q := s.srv.panicOnSeq; q != 0 && accs[0].Seq <= q && q <= accs[len(accs)-1].Seq {
		panic(fmt.Sprintf("injected fault at seq %d", q))
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.fail(it, fmt.Errorf("closed"))
		return
	}
	// Stage clocks (fresh decisions only, so every latency histogram's
	// count equals serve_decisions_total). decideStart doubles as the end
	// of the queue-wait stage: arrival → here covers the inbox wait plus
	// worker serialization.
	tr := s.srv.trace
	var decideStart time.Time
	if tr != nil {
		decideStart = time.Now()
	}
	sc := &s.sc
	sc.reset()
	var fresh, replayed, stale int
	for i := range accs {
		a := &accs[i]
		if a.Seq <= s.lastSeq {
			if entry, ok := s.replay.get(a.Seq); ok {
				replayed++
				sc.add(BatchDecision{Seq: a.Seq, Replayed: true}, entry.Prefetch, entry.Shadow)
			} else {
				stale++
				sc.add(BatchDecision{Seq: a.Seq, Code: CodeStaleSeq}, nil, nil)
			}
			continue
		}
		pf, sh := s.learner.DecideAccess(a)
		sc.add(BatchDecision{Seq: a.Seq}, pf, sh)
		s.lastSeq = a.Seq
		fresh++
	}
	if fresh > 0 {
		span := s.replay.evict()
		for _, d := range sc.res[len(sc.res)-fresh:] {
			span.add(d.Seq, d.Prefetch, d.Shadow)
		}
	}
	s.mu.Unlock()
	if fresh > 0 {
		s.srv.decisionsTotal.Add(uint64(fresh))
		s.decisions.Add(uint64(fresh))
	}
	if replayed > 0 {
		s.srv.replayedTotal.Add(uint64(replayed))
		s.replayedN.Add(uint64(replayed))
	}
	if stale > 0 {
		s.srv.staleTotal.Add(uint64(stale))
	}
	out := sc.reply(it.fr)
	if tr == nil || fresh == 0 {
		s.reply(it.conn, out)
		return
	}
	decided := time.Now()
	s.reply(it.conn, out)
	written := time.Now()
	tr.observe(s.id, accs[0].Seq, len(accs), fresh, frameTiming{
		decode:    it.decodeDur,
		queueWait: decideStart.Sub(it.arrival),
		decide:    decided.Sub(decideStart),
		write:     written.Sub(decided),
	}, it.sampled, it.spanStart, len(s.inbox))
}

// reply sends a worker-produced decision through the connection's
// coalescing buffer, flushing when the inbox is idle (a lockstep client
// is waiting on exactly this reply) and otherwise letting the writer's
// byte/deadline policy batch the syscall with the next replies. writeq
// encodes f before it returns, so the worker's scratch is free again.
func (s *session) reply(conn *connWriter, f *Frame) {
	conn.writeq(f)
	if len(s.inbox) == 0 {
		conn.flush()
	} else {
		conn.armFlush()
	}
}

// snapshot captures the session under its lock.
func (s *session) snapshot() SessionSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SessionSnapshot{
		ID:      s.id,
		LastSeq: s.lastSeq,
		Replay:  s.replay.entries(),
		Learner: s.learner.Save(),
	}
}

// restoreSession rebuilds a session from a snapshot slice. The snapshot
// stores the replay cache flat (ascending seqs); contiguous runs are
// regrouped into spans so the restored ring keeps the same replay window
// the live ring had, whatever mix of batch sizes produced it.
func restoreSession(snap SessionSnapshot, srv *Server) (*session, error) {
	l, err := RestoreLearner(snap.Learner)
	if err != nil {
		return nil, fmt.Errorf("serve: session %s: %w", snap.ID, err)
	}
	s := newSession(snap.ID, l, srv)
	s.lastSeq = snap.LastSeq
	for i := 0; i < len(snap.Replay); {
		j := i + 1
		for j < len(snap.Replay) && snap.Replay[j].Seq == snap.Replay[j-1].Seq+1 {
			j++
		}
		s.replay.putSpan(snap.Replay[i:j])
		i = j
	}
	return s, nil
}

// replayRing caches the most recent decisions for duplicate suppression:
// a bounded ring of spans, each span one contiguous seq range (one
// request's fresh decisions). One slot per served frame keeps
// the lookup and eviction cost independent of batch size, and a resent
// batch that straddles the ring edge naturally splits into the entries
// still cached and the seqs already evicted.
//
// Each slot owns its entries and address buffer, and a new span
// overwrites the oldest slot in place, so a warm ring caches without
// allocating. What get returns aliases a slot: it is valid only until
// the next span is written.
type replayRing struct {
	spans []replaySpan
	next  int
}

// replaySpan is one cached contiguous decision run; empty slots hold no
// entries.
type replaySpan struct {
	entries []ReplayEntry
	addrs   addrArena
}

// add appends one decision to the span, copying its addresses into the
// span's own buffer.
func (sp *replaySpan) add(seq uint64, prefetch, shadow []uint64) {
	sp.entries = append(sp.entries, ReplayEntry{
		Seq: seq, Prefetch: sp.addrs.keep(prefetch...), Shadow: sp.addrs.keep(shadow...),
	})
}

func (r *replayRing) init(depth int) {
	if depth <= 0 {
		depth = 1
	}
	r.spans = make([]replaySpan, depth)
}

// evict empties the oldest slot, keeping its buffers, and returns it for
// the next span (ascending seqs, above every seq already cached).
func (r *replayRing) evict() *replaySpan {
	sp := &r.spans[r.next]
	sp.entries, sp.addrs = sp.entries[:0], sp.addrs[:0]
	r.next++
	if r.next == len(r.spans) {
		r.next = 0
	}
	return sp
}

// putSpan caches a copy of one contiguous run (ascending seqs), evicting
// the oldest span.
func (r *replayRing) putSpan(es []ReplayEntry) {
	if len(es) == 0 {
		return
	}
	sp := r.evict()
	for _, e := range es {
		sp.add(e.Seq, e.Prefetch, e.Shadow)
	}
}

func (r *replayRing) get(seq uint64) (ReplayEntry, bool) {
	if seq == 0 {
		return ReplayEntry{}, false
	}
	for i := range r.spans {
		es := r.spans[i].entries
		if len(es) == 0 {
			continue
		}
		if first := es[0].Seq; seq >= first && seq-first < uint64(len(es)) {
			return es[seq-first], true
		}
	}
	return ReplayEntry{}, false
}

// entries returns a deep copy of the cached decisions in ascending seq
// order (snapshot determinism): walking slots oldest-first flattens to
// ascending seqs because spans are only ever appended with increasing
// ranges. The copy is what a snapshot encodes after the session lock
// drops, while the worker goes on overwriting slots.
func (r *replayRing) entries() []ReplayEntry {
	var all replaySpan
	for k := 0; k < len(r.spans); k++ {
		for _, e := range r.spans[(r.next+k)%len(r.spans)].entries {
			all.add(e.Seq, e.Prefetch, e.Shadow)
		}
	}
	return all.entries
}

// addrArena backs many short address lists with one reused buffer.
type addrArena []uint64

// keep appends vs to the arena and returns them as a slice of it, capped
// so no append through the result reaches past them; nil when vs is
// empty. If the append moves the arena, slices kept earlier still hold
// their values in the old array.
func (a *addrArena) keep(vs ...uint64) []uint64 {
	if len(vs) == 0 {
		return nil
	}
	n := len(*a)
	*a = append(*a, vs...)
	return (*a)[n:len(*a):len(*a)]
}
