package client

import (
	"bufio"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"semloc/internal/core"
	"semloc/internal/obs"
	"semloc/internal/serve"
)

// chaosProxy sits between client and daemon and injects frame-level
// faults: whole newline-delimited frames are dropped, duplicated or
// delayed in either direction. The backend address is swappable so a
// restarted daemon (new port) slots in without the client noticing.
type chaosProxy struct {
	t  *testing.T
	ln net.Listener
	wg sync.WaitGroup

	mu      sync.Mutex
	backend string

	closed atomic.Bool

	// Per-mille fault rates, applied per frame.
	dropPM, dupPM, delayPM int
	delay                  time.Duration

	rng atomic.Uint64

	dropped    atomic.Uint64
	duplicated atomic.Uint64
	delayed    atomic.Uint64
}

func startProxy(t *testing.T, backend string, dropPM, dupPM, delayPM int) *chaosProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &chaosProxy{
		t: t, ln: ln, backend: backend,
		dropPM: dropPM, dupPM: dupPM, delayPM: delayPM,
		delay: 2 * time.Millisecond,
	}
	p.rng.Store(0x1234567890abcdef)
	p.wg.Add(1)
	go p.accept()
	t.Cleanup(p.Close)
	return p
}

func (p *chaosProxy) addr() string { return p.ln.Addr().String() }

func (p *chaosProxy) setBackend(addr string) {
	p.mu.Lock()
	p.backend = addr
	p.mu.Unlock()
}

func (p *chaosProxy) currentBackend() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.backend
}

func (p *chaosProxy) Close() {
	if p.closed.Swap(true) {
		return
	}
	p.ln.Close()
	p.wg.Wait()
}

// roll steps a shared splitmix64 and returns a value in [0,1000).
func (p *chaosProxy) roll() int {
	z := p.rng.Add(0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int((z ^ (z >> 31)) % 1000)
}

func (p *chaosProxy) accept() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		b, err := net.DialTimeout("tcp", p.currentBackend(), time.Second)
		if err != nil {
			c.Close() // daemon down: the client's retry loop handles it
			continue
		}
		p.wg.Add(2)
		go p.pump(c, b)
		go p.pump(b, c)
	}
}

// pump forwards newline frames src→dst with faults. Either side dying
// closes both, severing the whole proxied connection.
func (p *chaosProxy) pump(src, dst net.Conn) {
	defer p.wg.Done()
	defer src.Close()
	defer dst.Close()
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 4096), serve.MaxFrameBytes+2)
	for sc.Scan() {
		line := append(append([]byte(nil), sc.Bytes()...), '\n')
		if p.roll() < p.dropPM {
			p.dropped.Add(1)
			continue
		}
		if p.roll() < p.delayPM {
			p.delayed.Add(1)
			time.Sleep(p.delay)
		}
		if _, err := dst.Write(line); err != nil {
			return
		}
		if p.roll() < p.dupPM {
			p.duplicated.Add(1)
			if _, err := dst.Write(line); err != nil {
				return
			}
		}
	}
}

func startDaemon(t *testing.T, cfg serve.Config) *serve.Server {
	t.Helper()
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	s, err := serve.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	return s
}

func accessFrame(i uint64) *serve.Frame {
	return &serve.Frame{Type: serve.FrameAccess, Seq: i, PC: 0x400000,
		Addr: 0x100000 + (i%512)*64}
}

// referenceDecisions precomputes what an uninterrupted in-process learner
// decides for every seq of the stream.
func referenceDecisions(t *testing.T, n uint64) []*serve.Frame {
	t.Helper()
	ref, err := serve.NewLearner(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*serve.Frame, n+1)
	for i := uint64(1); i <= n; i++ {
		a := accessFrame(i).Access()
		pf, sh := ref.DecideAccess(&a)
		out[i] = &serve.Frame{Prefetch: append([]uint64(nil), pf...), Shadow: append([]uint64(nil), sh...)}
	}
	return out
}

func chaosClientConfig(p *chaosProxy, session string) Config {
	return Config{
		Addr:           FixedAddr(p.addr()),
		Session:        session,
		DialTimeout:    150 * time.Millisecond,
		RequestTimeout: 150 * time.Millisecond,
		MaxAttempts:    100,
		BackoffBase:    2 * time.Millisecond,
		BackoffMax:     40 * time.Millisecond,
		Seed:           42,
	}
}

// TestChaosLossyTransport streams through a proxy that drops, duplicates
// and delays frames in both directions. The retry/replay discipline must
// deliver every decision, and every decision must match the
// uninterrupted in-process reference bit-for-bit. Both sides run fully
// instrumented (server tracer at sample-every-1 with a tiny slow
// threshold, client metrics registry): tracing must never change a
// decision, and under chaos the count invariant — every serve_*_latency
// histogram count equals serve_decisions_total — must survive retries,
// duplicates and replays.
func TestChaosLossyTransport(t *testing.T) {
	const n = 1200
	want := referenceDecisions(t, n)

	srvReg := obs.NewRegistry()
	s := startDaemon(t, serve.Config{
		Reg: srvReg,
		Trace: &serve.TraceConfig{
			Spans:         obs.NewSpanRecorder(),
			SampleEvery:   1,
			SlowThreshold: time.Nanosecond,
			Logf:          func(string, ...any) {},
		},
	})
	defer s.Close()
	p := startProxy(t, s.Addr().String(), 25, 40, 15)

	cliReg := obs.NewRegistry()
	cfg := chaosClientConfig(p, "lossy")
	cfg.Reg = cliReg
	c, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := uint64(1); i <= n; i++ {
		got, err := c.Decide(accessFrame(i))
		if err != nil {
			t.Fatalf("seq %d: %v", i, err)
		}
		if got.Degraded {
			t.Fatalf("seq %d: degraded decision in lockstep", i)
		}
		if !serve.SameDecision(got, want[i]) {
			t.Fatalf("seq %d: daemon %v/%v, reference %v/%v",
				i, got.Prefetch, got.Shadow, want[i].Prefetch, want[i].Shadow)
		}
	}
	if p.dropped.Load() == 0 || p.duplicated.Load() == 0 {
		t.Fatalf("proxy injected no faults (dropped %d, duplicated %d) — test proved nothing",
			p.dropped.Load(), p.duplicated.Load())
	}

	// The count invariant under chaos: exactly one fresh decision per seq,
	// so decisions_total == n and every latency histogram observed n times
	// (replays and resends never observe). A session worker counts a
	// decision before it writes the reply and observes the histograms
	// after, so scrape only once Close has waited for every worker.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	decisions := srvReg.Counter("serve_decisions_total", "").Value()
	if decisions != n {
		t.Fatalf("decisions_total %d under chaos, want exactly %d", decisions, n)
	}
	for _, name := range []string{
		serve.MetricDecodeLatency, serve.MetricQueueWaitLatency,
		serve.MetricDecideLatency, serve.MetricWriteLatency, serve.MetricFrameLatency,
	} {
		if got := srvReg.Histogram(name, "", obs.DefaultLatencyBuckets).Count(); got != decisions {
			t.Fatalf("%s count %d != serve_decisions_total %d", name, got, decisions)
		}
	}
	// Client-side metrics agree with the exported int counters, and the
	// RTT histogram saw every successful exchange.
	if got := cliReg.Histogram(MetricClientRTT, "", obs.DefaultLatencyBuckets).Count(); got != n {
		t.Fatalf("client RTT count %d, want %d", got, n)
	}
	if got := cliReg.Counter(MetricClientRetries, "").Value(); got != uint64(c.Retries) {
		t.Fatalf("client_retries_total %d != Retries %d", got, c.Retries)
	}
	if got := cliReg.Counter(MetricClientReconnects, "").Value(); got != uint64(c.Reconnects) {
		t.Fatalf("client_reconnects_total %d != Reconnects %d", got, c.Reconnects)
	}
	t.Logf("faults: dropped %d, duplicated %d, delayed %d; client retries %d, reconnects %d",
		p.dropped.Load(), p.duplicated.Load(), p.delayed.Load(), c.Retries, c.Reconnects)
}

// TestChaosKillRestartWarmStart kills the daemon twice mid-stream — once
// abruptly (crash: tail state since the last snapshot is lost, the
// client rewinds and replays) and once gracefully mid-flight while the
// client keeps streaming — and requires every decision across all three
// daemon incarnations to match a never-killed reference.
func TestChaosKillRestartWarmStart(t *testing.T) {
	const (
		snapAt  = 700  // manual "periodic" snapshot
		crashAt = 900  // abrupt kill: 701..900 lost, must be replayed
		kill2At = 1500 // graceful restart, concurrent with the stream
		n       = 2000
	)
	want := referenceDecisions(t, n)

	dir := t.TempDir()
	cfg := serve.Config{SnapshotPath: dir + "/prefetchd.snap",
		SnapshotInterval: time.Hour} // manual snapshots only
	s1 := startDaemon(t, cfg)
	p := startProxy(t, s1.Addr().String(), 10, 15, 5)

	baseGoroutines := runtime.NumGoroutine()
	baseFDs := countFDs(t)

	c, err := Dial(chaosClientConfig(p, "chaos"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cur := s1
	var restartWG sync.WaitGroup
	replays := 0
	snapped, crashed, killed := false, false, false
	for i := uint64(1); i <= n; i++ {
		got, err := c.Decide(accessFrame(i))
		if rw, ok := err.(*RewindError); ok {
			// The restarted daemon is behind: replay the stream from its
			// high-water mark. Retraining from the snapshot state must
			// reproduce the reference decisions exactly.
			if rw.ServerSeq >= i {
				t.Fatalf("rewind to %d at seq %d: server ahead of stream", rw.ServerSeq, i)
			}
			replays++
			i = rw.ServerSeq // loop increment resends ServerSeq+1
			continue
		}
		if err != nil {
			t.Fatalf("seq %d: %v", i, err)
		}
		if got.Degraded {
			t.Fatalf("seq %d: degraded decision in lockstep", i)
		}
		if !serve.SameDecision(got, want[i]) {
			t.Fatalf("seq %d: decision diverged after restart: daemon %v/%v, reference %v/%v",
				i, got.Prefetch, got.Shadow, want[i].Prefetch, want[i].Shadow)
		}

		// Fault injections fire once each — a rewind replays these seqs,
		// and re-crashing on every replay pass would loop forever.
		switch {
		case i == snapAt && !snapped:
			snapped = true
			if err := cur.WriteSnapshot(); err != nil {
				t.Fatal(err)
			}
		case i == crashAt && !crashed:
			// Crash: no final snapshot. Everything since snapAt dies
			// with the process.
			crashed = true
			cur.Abort()
			next := startDaemon(t, cfg)
			if next.RestoredSessions() != 1 {
				t.Fatalf("restart 1 restored %d sessions, want 1", next.RestoredSessions())
			}
			p.setBackend(next.Addr().String())
			cur = next
		case i == kill2At && !killed:
			// Graceful restart concurrent with the live stream: the
			// client rides the outage on its retry loop.
			killed = true
			old := cur
			restartWG.Add(1)
			go func() {
				defer restartWG.Done()
				old.Close() // drains, writes final snapshot
				next := startDaemon(t, cfg)
				p.setBackend(next.Addr().String())
				cur = next
			}()
		}
	}
	restartWG.Wait()

	if replays == 0 {
		t.Fatal("abrupt kill caused no rewind — crash path not exercised")
	}
	if !c.Resumed() {
		t.Fatal("client never re-attached an existing session")
	}
	if c.Reconnects < 2 {
		t.Fatalf("client reconnected %d times across two restarts", c.Reconnects)
	}

	// Full teardown: no goroutine or fd leaks across three daemon
	// incarnations and a fault-injecting proxy.
	c.Close()
	cur.Close()
	p.Close()
	waitFor(t, 5*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseGoroutines && countFDs(t) <= baseFDs
	}, func() string {
		return "goroutine or fd leak after chaos teardown"
	})
	t.Logf("rewound %d time(s); client retries %d, reconnects %d; proxy dropped %d, duplicated %d",
		replays, c.Retries, c.Reconnects, p.dropped.Load(), p.duplicated.Load())
}

// TestClientStats round-trips the stats frame through the retrying
// client: the server-side session counters reflect the stream so far.
func TestClientStats(t *testing.T) {
	s := startDaemon(t, serve.Config{})
	defer s.Close()
	c, err := Dial(Config{Addr: FixedAddr(s.Addr().String()), Session: "st"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 10
	for i := uint64(1); i <= n; i++ {
		if _, err := c.Decide(accessFrame(i)); err != nil {
			t.Fatalf("seq %d: %v", i, err)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "st" || st.Decisions != n || st.LastSeq != n || !st.Attached {
		t.Fatalf("session stats %+v", st)
	}
}

func countFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0 // non-linux: fd tracking unavailable
	}
	return len(ents)
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, msg func() string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg())
		}
		time.Sleep(20 * time.Millisecond)
	}
}
