package client

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"semloc/internal/obs"
	"semloc/internal/serve"
)

// batchAccs builds k contiguous batch accesses starting at first, on the
// same deterministic stream accessFrame generates.
func batchAccs(first uint64, k int) []serve.BatchAccess {
	accs := make([]serve.BatchAccess, k)
	for j := range accs {
		seq := first + uint64(j)
		accs[j] = serve.BatchAccess{Seq: seq, PC: 0x400000, Addr: 0x100000 + (seq%512)*64}
	}
	return accs
}

// TestClientDecideBatch drives the stream through DecideBatch in mixed
// chunk sizes and requires bit-identical decisions to the in-process
// reference, plus the RTT invariant: one histogram sample per decision,
// never per frame.
func TestClientDecideBatch(t *testing.T) {
	const n = 600
	want := referenceDecisions(t, n)
	s := startDaemon(t, serve.Config{})
	defer s.Close()

	reg := obs.NewRegistry()
	c, err := Dial(Config{Addr: FixedAddr(s.Addr().String()), Session: "db",
		MaxBatch: 16, Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Batch() != 16 {
		t.Fatalf("granted batch %d, want 16", c.Batch())
	}

	sizes := []int{16, 1, 7, 16, 3, 16, 11, 2, 16, 8}
	seq := uint64(1)
	for si := 0; seq <= n; si++ {
		k := sizes[si%len(sizes)]
		if rem := int(n - seq + 1); k > rem {
			k = rem
		}
		res, err := c.DecideBatch(batchAccs(seq, k), nil)
		if err != nil {
			t.Fatalf("batch at %d: %v", seq, err)
		}
		if len(res) != k {
			t.Fatalf("batch at %d: %d results, want %d", seq, len(res), k)
		}
		for j, d := range res {
			i := seq + uint64(j)
			if d.Seq != i || d.Degraded || d.Replayed || d.Code != "" {
				t.Fatalf("seq %d: result %+v in lockstep", i, d)
			}
			if !serve.SameDecision(&serve.Frame{Prefetch: d.Prefetch, Shadow: d.Shadow}, want[i]) {
				t.Fatalf("seq %d: daemon %v/%v, reference %v/%v",
					i, d.Prefetch, d.Shadow, want[i].Prefetch, want[i].Shadow)
			}
		}
		seq += uint64(k)
	}

	rtt := reg.Histogram(MetricClientRTT, "", obs.DefaultLatencyBuckets)
	if got := rtt.Count(); got != n {
		t.Fatalf("RTT histogram saw %d samples for %d decisions (must be per decision, not per frame)", got, n)
	}

	// Scheduled send times correct for coordinated omission: a batch whose
	// members were due 20ms ago reports >=20ms per member, even though the
	// wire exchange itself is microseconds.
	sumBefore := rtt.Sum()
	sched := make([]time.Time, 5)
	for j := range sched {
		sched[j] = time.Now().Add(-20 * time.Millisecond)
	}
	if _, err := c.DecideBatch(batchAccs(n+1, 5), sched); err != nil {
		t.Fatal(err)
	}
	if got := rtt.Count(); got != n+5 {
		t.Fatalf("RTT count %d after scheduled batch, want %d", got, n+5)
	}
	if added := rtt.Sum() - sumBefore; added < 5*0.020 {
		t.Fatalf("scheduled batch added %.4fs of RTT, want >= %.4fs (schedule-relative timing)", added, 5*0.020)
	}
}

// TestClientDecideBatchFallback: against a daemon with batching disabled
// the client is granted 0 and DecideBatch sends every access as its own
// access frame — same results, old servers keep working.
func TestClientDecideBatchFallback(t *testing.T) {
	const n = 40
	want := referenceDecisions(t, n)
	s := startDaemon(t, serve.Config{MaxBatch: -1})
	defer s.Close()
	c, err := Dial(Config{Addr: FixedAddr(s.Addr().String()), Session: "fb", MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Batch() != 0 {
		t.Fatalf("granted batch %d from a non-batching daemon, want 0", c.Batch())
	}
	res, err := c.DecideBatch(batchAccs(1, n), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != n {
		t.Fatalf("%d results, want %d", len(res), n)
	}
	for j, d := range res {
		i := uint64(j + 1)
		if d.Seq != i || !serve.SameDecision(&serve.Frame{Prefetch: d.Prefetch, Shadow: d.Shadow}, want[i]) {
			t.Fatalf("seq %d: fallback result %+v diverged from reference %v/%v",
				i, d, want[i].Prefetch, want[i].Shadow)
		}
	}
}

// TestClientDecideBatchChunking: a call larger than the negotiated size
// is split into server-sized chunks internally; results come back as one
// slice, earlier chunks surviving the buffer reuse of later ones.
func TestClientDecideBatchChunking(t *testing.T) {
	const n = 23
	want := referenceDecisions(t, n)
	s := startDaemon(t, serve.Config{MaxBatch: 4})
	defer s.Close()
	c, err := Dial(Config{Addr: FixedAddr(s.Addr().String()), Session: "ck", MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Batch() != 4 {
		t.Fatalf("granted batch %d against server cap 4", c.Batch())
	}
	res, err := c.DecideBatch(batchAccs(1, n), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != n {
		t.Fatalf("%d results, want %d", len(res), n)
	}
	for j, d := range res {
		i := uint64(j + 1)
		if d.Seq != i || !serve.SameDecision(&serve.Frame{Prefetch: d.Prefetch, Shadow: d.Shadow}, want[i]) {
			t.Fatalf("seq %d (chunk %d): %v/%v, reference %v/%v",
				i, j/4, d.Prefetch, d.Shadow, want[i].Prefetch, want[i].Shadow)
		}
	}
}

func TestClientDecideBatchValidation(t *testing.T) {
	s := startDaemon(t, serve.Config{})
	defer s.Close()
	c, err := Dial(Config{Addr: FixedAddr(s.Addr().String()), Session: "val", MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bad := [][]serve.BatchAccess{
		{{Seq: 0}},           // zero seq
		{{Seq: 2}, {Seq: 2}}, // duplicate
		{{Seq: 2}, {Seq: 4}}, // gap
		append(batchAccs(1, 2), serve.BatchAccess{Seq: 1}), // descending tail
	}
	for i, accs := range bad {
		if _, err := c.DecideBatch(accs, nil); err == nil {
			t.Errorf("case %d: DecideBatch accepted a malformed seq run", i)
		}
	}
	if res, err := c.DecideBatch(nil, nil); err != nil || len(res) != 0 {
		t.Errorf("empty DecideBatch: res %v err %v, want no-op", res, err)
	}
	// The stream is intact after the rejections.
	if _, err := c.DecideBatch(batchAccs(1, 3), nil); err != nil {
		t.Fatalf("stream broken after local validation errors: %v", err)
	}
}

// TestChaosLossyTransportBatched is the batched twin of
// TestChaosLossyTransport: the same dropping/duplicating/delaying proxy,
// the server fully instrumented at sample-every-1, the stream driven in
// batches — decisions must still be bit-identical and the count
// invariants must still hold (per-decision, never per-frame).
func TestChaosLossyTransportBatched(t *testing.T) {
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
	cfg := chaosClientConfig(p, "lossyb")
	cfg.Reg = cliReg
	cfg.MaxBatch = 16
	c, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sizes := []int{16, 3, 16, 8, 1, 16, 5, 16}
	seq := uint64(1)
	for si := 0; seq <= n; si++ {
		k := sizes[si%len(sizes)]
		if rem := int(n - seq + 1); k > rem {
			k = rem
		}
		res, err := c.DecideBatch(batchAccs(seq, k), nil)
		if err != nil {
			t.Fatalf("batch at %d: %v", seq, err)
		}
		for j, d := range res {
			i := seq + uint64(j)
			if d.Degraded || d.Code != "" {
				t.Fatalf("seq %d: %+v in lockstep", i, d)
			}
			if !serve.SameDecision(&serve.Frame{Prefetch: d.Prefetch, Shadow: d.Shadow}, want[i]) {
				t.Fatalf("seq %d: daemon %v/%v, reference %v/%v",
					i, d.Prefetch, d.Shadow, want[i].Prefetch, want[i].Shadow)
			}
		}
		seq += uint64(k)
	}
	if p.dropped.Load() == 0 || p.duplicated.Load() == 0 {
		t.Fatalf("proxy injected no faults (dropped %d, duplicated %d) — test proved nothing",
			p.dropped.Load(), p.duplicated.Load())
	}

	// Scrape once Close has waited for every session worker: a worker
	// observes the latency histograms after writing the reply.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	decisions := srvReg.Counter("serve_decisions_total", "").Value()
	if decisions != n {
		t.Fatalf("decisions_total %d under batched chaos, want exactly %d", decisions, n)
	}
	for _, name := range []string{
		serve.MetricDecodeLatency, serve.MetricQueueWaitLatency,
		serve.MetricDecideLatency, serve.MetricWriteLatency, serve.MetricFrameLatency,
	} {
		if got := srvReg.Histogram(name, "", obs.DefaultLatencyBuckets).Count(); got != decisions {
			t.Fatalf("%s count %d != serve_decisions_total %d", name, got, decisions)
		}
	}
	if got := cliReg.Histogram(MetricClientRTT, "", obs.DefaultLatencyBuckets).Count(); got != n {
		t.Fatalf("client RTT count %d, want %d (one sample per decision)", got, n)
	}
	t.Logf("faults: dropped %d, duplicated %d, delayed %d; client retries %d, reconnects %d",
		p.dropped.Load(), p.duplicated.Load(), p.delayed.Load(), c.Retries, c.Reconnects)
}

// TestChaosKillRestartBatched kills the daemon twice mid-stream — once
// abruptly with a batch in flight (the defining crash case for the
// batched pipeline: the tail since the snapshot is lost, the client
// rewinds, and the re-sent batches no longer align with the original
// batch boundaries, exercising partial-batch replay) and once gracefully
// — and requires every decision across all three incarnations to match a
// never-killed reference bit-for-bit.
func TestChaosKillRestartBatched(t *testing.T) {
	const (
		snapAt  = 700
		crashAt = 900
		kill2At = 1500
		n       = 2000
		bsz     = 16
	)
	want := referenceDecisions(t, n)

	dir := t.TempDir()
	cfg := serve.Config{SnapshotPath: dir + "/prefetchd.snap",
		SnapshotInterval: time.Hour}
	s1 := startDaemon(t, cfg)
	p := startProxy(t, s1.Addr().String(), 10, 15, 5)

	baseGoroutines := runtime.NumGoroutine()
	baseFDs := countFDs(t)

	ccfg := chaosClientConfig(p, "chaosb")
	ccfg.MaxBatch = bsz
	c, err := Dial(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cur := s1
	var restartWG sync.WaitGroup
	replays := 0
	snapped, crashed, killed := false, false, false
	// Deliberately odd chunk sizes so batch boundaries drift relative to
	// any earlier pass of the stream.
	sizes := []int{bsz, 7, bsz, 3, 11, bsz}
	i, si := uint64(1), 0
	for i <= n {
		k := sizes[si%len(sizes)]
		si++
		if rem := int(n - i + 1); k > rem {
			k = rem
		}
		res, err := c.DecideBatch(batchAccs(i, k), nil)
		if rw, ok := err.(*RewindError); ok {
			if rw.ServerSeq >= i+uint64(k)-1 {
				t.Fatalf("rewind to %d at batch [%d..%d]: server ahead of stream", rw.ServerSeq, i, i+uint64(k)-1)
			}
			replays++
			i = rw.ServerSeq + 1
			continue
		}
		if err != nil {
			t.Fatalf("batch at %d: %v", i, err)
		}
		for j, d := range res {
			seq := i + uint64(j)
			if d.Degraded || d.Code != "" {
				t.Fatalf("seq %d: %+v in lockstep", seq, d)
			}
			if !serve.SameDecision(&serve.Frame{Prefetch: d.Prefetch, Shadow: d.Shadow}, want[seq]) {
				t.Fatalf("seq %d: decision diverged after restart: daemon %v/%v, reference %v/%v",
					seq, d.Prefetch, d.Shadow, want[seq].Prefetch, want[seq].Shadow)
			}
		}
		last := i + uint64(k) - 1
		i += uint64(k)

		switch {
		case last >= snapAt && !snapped:
			snapped = true
			if err := cur.WriteSnapshot(); err != nil {
				t.Fatal(err)
			}
		case last >= crashAt && !crashed:
			// Abrupt kill with batches in flight: everything since the
			// snapshot dies with the process.
			crashed = true
			cur.Abort()
			next := startDaemon(t, cfg)
			if next.RestoredSessions() != 1 {
				t.Fatalf("restart 1 restored %d sessions, want 1", next.RestoredSessions())
			}
			p.setBackend(next.Addr().String())
			cur = next
		case last >= kill2At && !killed:
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
		t.Fatal("abrupt kill caused no rewind — batched crash path not exercised")
	}
	if c.Reconnects < 2 {
		t.Fatalf("client reconnected %d times across two restarts", c.Reconnects)
	}

	c.Close()
	cur.Close()
	p.Close()
	waitFor(t, 5*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseGoroutines && countFDs(t) <= baseFDs
	}, func() string {
		return "goroutine or fd leak after batched chaos teardown"
	})
	t.Logf("rewound %d time(s); client retries %d, reconnects %d; proxy dropped %d, duplicated %d",
		replays, c.Retries, c.Reconnects, p.dropped.Load(), p.duplicated.Load())
}
