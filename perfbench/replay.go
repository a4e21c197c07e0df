package main

import (
	"context"
	"fmt"

	"semloc/internal/cache"
	"semloc/internal/cpu"
	"semloc/internal/memmodel"
	"semloc/internal/prefetch"
	"semloc/internal/sim"
	"semloc/internal/trace"
)

// Issuer call kinds in a recording.
const (
	callFree uint8 = iota
	callPrefetch
	callShadow
)

// issuerCall is one prefetch.Issuer call a prefetcher made, with its
// answer: the free-slot count for callFree, 1/0 for callPrefetch.
type issuerCall struct {
	kind uint8
	ret  int32
	addr memmodel.Addr
	now  cache.Cycle
}

// recording is everything the layers below and above the prefetcher saw
// during one simulation: each OnAccess input (which carries the demand
// access the cache serviced: address, issue cycle, store flag and whether
// it missed L1), every issuer call with its answer, and the access index
// at which the warm-up boundary reset the statistics.
type recording struct {
	accs []prefetch.Access
	// callEnd[i] is the end offset in calls of access i's issuer calls.
	callEnd []int32
	calls   []issuerCall
	// warmAt is the access index before which the warm-up boundary fell
	// (-1: the trace has none).
	warmAt int
}

func (r *recording) reset() {
	r.accs, r.callEnd, r.calls, r.warmAt = r.accs[:0], r.callEnd[:0], r.calls[:0], -1
}

// recorder wraps a prefetcher for sim.RunContext and records its traffic.
// It is both the prefetch.Prefetcher the simulator drives and the
// prefetch.Issuer the wrapped prefetcher acts through.
type recorder struct {
	inner prefetch.Prefetcher
	iss   prefetch.Issuer
	rec   *recording
}

func (r *recorder) Name() string { return r.inner.Name() }

func (r *recorder) OnAccess(a *prefetch.Access, iss prefetch.Issuer) {
	r.rec.accs = append(r.rec.accs, *a)
	r.iss = iss
	r.inner.OnAccess(a, r)
	r.rec.callEnd = append(r.rec.callEnd, int32(len(r.rec.calls)))
}

// ResetMetrics marks the warm-up boundary (sim calls it there) and passes
// it on to a prefetcher that keeps statistics.
func (r *recorder) ResetMetrics() {
	r.rec.warmAt = len(r.rec.accs)
	if m, ok := r.inner.(interface{ ResetMetrics() }); ok {
		m.ResetMetrics()
	}
}

func (r *recorder) Prefetch(addr memmodel.Addr, now cache.Cycle) bool {
	ok := r.iss.Prefetch(addr, now)
	var ret int32
	if ok {
		ret = 1
	}
	r.rec.calls = append(r.rec.calls, issuerCall{kind: callPrefetch, ret: ret, addr: addr, now: now})
	return ok
}

func (r *recorder) Shadow(addr memmodel.Addr) {
	r.iss.Shadow(addr)
	r.rec.calls = append(r.rec.calls, issuerCall{kind: callShadow, addr: addr})
}

func (r *recorder) FreePrefetchSlots(now cache.Cycle) int {
	n := r.iss.FreePrefetchSlots(now)
	r.rec.calls = append(r.rec.calls, issuerCall{kind: callFree, ret: int32(n), now: now})
	return n
}

// replayCache feeds the recorded demand and prefetch stream into h, a fresh
// hierarchy, and returns each demand access's completion cycle in done.
// With verify set it checks every answer against the recording — L1 hit or
// miss per demand, the free-slot count and the issued/dropped verdict per
// prefetcher query — and the final statistics against want.
func replayCache(rec *recording, h *cache.Hierarchy, done []cache.Cycle, verify bool, want *sim.Result) error {
	call := 0
	for i := range rec.accs {
		a := &rec.accs[i]
		if i == rec.warmAt {
			h.ResetStats()
		}
		var res cache.Result
		if a.IsStore {
			res = h.AccessWrite(a.Addr, a.Now)
		} else {
			res = h.Access(a.Addr, a.Now)
		}
		done[i] = res.Done
		if verify && (res.Outcome != cache.OutcomeL1Hit) != a.MissedL1 {
			return fmt.Errorf("cache replay: access %d (addr %#x at cycle %d): L1 miss %v, recorded %v",
				i, a.Addr, a.Now, res.Outcome != cache.OutcomeL1Hit, a.MissedL1)
		}
		for end := int(rec.callEnd[i]); call < end; call++ {
			c := &rec.calls[call]
			var got int32
			switch c.kind {
			case callFree:
				got = int32(h.FreePrefetchSlots(c.now))
			case callPrefetch:
				if h.Prefetch(c.addr, c.now) {
					got = 1
				}
			default:
				continue
			}
			if verify && got != c.ret {
				return fmt.Errorf("cache replay: access %d issuer call %d (kind %d, addr %#x, cycle %d) answered %d, recorded %d",
					i, call, c.kind, c.addr, c.now, got, c.ret)
			}
		}
	}
	if rec.warmAt == len(rec.accs) {
		h.ResetStats()
	}
	if !verify {
		return nil
	}
	h.FinishStats()
	l1, l2 := h.Stats()
	if l1 != want.L1 || l2 != want.L2 {
		return fmt.Errorf("cache replay: final stats L1 %+v L2 %+v, run had L1 %+v L2 %+v", l1, l2, want.L1, want.L2)
	}
	return nil
}

// doneMemory is the cpu.Memory stub of the CPU replay: it answers each
// demand access with the completion cycle the cache replay produced.
type doneMemory struct {
	rec    *recording
	done   []cache.Cycle
	i      int
	verify bool
	err    error
}

func (m *doneMemory) Access(r *trace.Record, now cache.Cycle) cache.Cycle {
	i := m.i
	m.i++
	if i >= len(m.done) {
		if m.err == nil {
			m.err = fmt.Errorf("cpu replay: access %d beyond the %d recorded", i, len(m.done))
		}
		return now
	}
	if m.verify && m.err == nil {
		if a := &m.rec.accs[i]; a.Addr != r.Addr || a.Now != now {
			m.err = fmt.Errorf("cpu replay: access %d is addr %#x at cycle %d, recorded addr %#x at cycle %d",
				i, r.Addr, now, a.Addr, a.Now)
		}
	}
	return m.done[i]
}

// replayCPU runs the core model over tr against the recorded completion
// cycles. With verify set the issued stream must match the recording and
// the result must equal want.
func replayCPU(ctx context.Context, rec *recording, tr *trace.Trace, done []cache.Cycle, verify bool, want cpu.Result) error {
	m := &doneMemory{rec: rec, done: done, verify: verify}
	got, err := cpu.RunContext(ctx, tr, m, cpu.DefaultConfig())
	if err != nil {
		return err
	}
	if m.err != nil {
		return m.err
	}
	if verify && m.i != len(done) {
		return fmt.Errorf("cpu replay: issued %d accesses, recorded %d", m.i, len(done))
	}
	if verify && got != want {
		return fmt.Errorf("cpu replay: result %+v, run had %+v", got, want)
	}
	return nil
}

// replayIssuer is the prefetch.Issuer stub of the prefetcher replay: it
// answers each call with the recorded answer and, with verify set, checks
// that the call sequence is the recorded one.
type replayIssuer struct {
	calls  []issuerCall
	i      int
	verify bool
	err    error
}

func (s *replayIssuer) next(kind uint8, addr memmodel.Addr, now cache.Cycle) int32 {
	if s.i >= len(s.calls) {
		if s.err == nil {
			s.err = fmt.Errorf("prefetcher replay: issuer call %d beyond the %d recorded", s.i, len(s.calls))
		}
		return 0
	}
	c := &s.calls[s.i]
	s.i++
	if s.verify && s.err == nil && (c.kind != kind || c.addr != addr || c.now != now) {
		s.err = fmt.Errorf("prefetcher replay: issuer call %d is kind %d addr %#x cycle %d, recorded kind %d addr %#x cycle %d",
			s.i-1, kind, addr, now, c.kind, c.addr, c.now)
	}
	return c.ret
}

func (s *replayIssuer) Prefetch(addr memmodel.Addr, now cache.Cycle) bool {
	return s.next(callPrefetch, addr, now) != 0
}

func (s *replayIssuer) Shadow(addr memmodel.Addr) { s.next(callShadow, addr, 0) }

func (s *replayIssuer) FreePrefetchSlots(now cache.Cycle) int {
	return int(s.next(callFree, 0, now))
}

// replayPrefetcher drives pf, a fresh prefetcher built like the recorded
// one, with the recorded OnAccess inputs against the recorded issuer
// answers. With verify set every access must make exactly the recorded
// issuer calls.
func replayPrefetcher(rec *recording, pf prefetch.Prefetcher, verify bool) error {
	iss := &replayIssuer{calls: rec.calls, verify: verify}
	var a prefetch.Access
	for i := range rec.accs {
		if i == rec.warmAt {
			if m, ok := pf.(interface{ ResetMetrics() }); ok {
				m.ResetMetrics()
			}
		}
		// A copy per call, as the simulator passes its own scratch: a
		// prefetcher must not see (or alter) the recording itself.
		a = rec.accs[i]
		pf.OnAccess(&a, iss)
		if verify && iss.err == nil && iss.i != int(rec.callEnd[i]) {
			return fmt.Errorf("prefetcher replay: access %d made issuer calls up to %d, recorded up to %d", i, iss.i, rec.callEnd[i])
		}
		if iss.err != nil {
			return iss.err
		}
	}
	if verify && iss.i != len(rec.calls) {
		return fmt.Errorf("prefetcher replay: made %d issuer calls, recorded %d", iss.i, len(rec.calls))
	}
	return nil
}
