package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"semloc/internal/serve"
	"semloc/internal/serve/client"
)

// spinWindow is how long before a scheduled send the open loop stops
// sleeping and yield-spins. A sleep of a few hundred microseconds on an
// otherwise idle Go runtime wakes up to a millisecond late (300 µs late
// at 2,000 sends/s in this package's tests), and that lateness would be
// measured as daemon latency.
const spinWindow = 2 * time.Millisecond

// spanSampleEvery is how often the traced phase samples an exchange into
// the span file, on the client and (-trace-sample) on the daemon.
const spanSampleEvery = 64

// exchangeRec is one sampled request/reply exchange: its first seq, send
// time and round trip.
type exchangeRec struct {
	seq   uint64
	start time.Time
	rtt   time.Duration
}

// session drives one client session against the daemon. With batch > 0 it
// runs a closed loop of batch-sized exchanges; otherwise an open loop of
// one access frame per decision, every interval. Exchanges sent (or, in
// open loop, scheduled) inside [from, to) are measured; the loop ends at
// to.
type session struct {
	addr, id string
	frames   []serve.Frame
	batch    int
	interval time.Duration
	from, to time.Time

	sampleSpans bool // traced phase: keep every spanSampleEvery-th measured exchange
	hash        bool // fold every decision into hashSum

	// Measured-window results, preallocated by the caller. lat holds the
	// latencies in µs, one per exchange (from the scheduled send in open
	// loop); late is the open loop's own send lateness in µs.
	lat       []float64
	late      []float64
	measured  int       // exchanges in lat
	lastDone  time.Time // completion of the last measured exchange
	exchanges []exchangeRec
	decisions uint64 // decided in the window
	failed    uint64 // accesses in the window that failed, were shed or refused
	rttSum    time.Duration

	received uint64 // fresh decisions received over the whole run
	hashSum  uint64
	hashed   uint64
}

// fnv64 folds v into a running FNV-1a hash.
func fnv64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * 1099511628211
		v >>= 8
	}
	return h
}

const fnvOffset = 14695981039346656037

// foldDecision folds one decision's payload into a decision-sequence hash.
func foldDecision(h uint64, prefetch, shadow []uint64) uint64 {
	h = fnv64(h, uint64(len(prefetch)))
	for _, a := range prefetch {
		h = fnv64(h, a)
	}
	h = fnv64(h, uint64(len(shadow)))
	for _, a := range shadow {
		h = fnv64(h, a)
	}
	return h
}

func (s *session) run(ctx context.Context) error {
	cl, err := client.Dial(client.Config{Addr: client.FixedAddr(s.addr), Session: s.id, MaxBatch: s.batch})
	if err != nil {
		return err
	}
	defer cl.Close()
	if s.batch > 0 && cl.Batch() != s.batch {
		return fmt.Errorf("session %s: daemon granted batch %d, asked %d", s.id, cl.Batch(), s.batch)
	}
	s.hashSum = fnvOffset
	if s.batch > 0 {
		return s.closedLoop(ctx, cl)
	}
	return s.openLoop(ctx, cl)
}

func (s *session) closedLoop(ctx context.Context, cl *client.Client) error {
	accs := make([]serve.BatchAccess, s.batch)
	var seq uint64
	fi := 0
	for ctx.Err() == nil {
		for j := range accs {
			fr := &s.frames[fi]
			if fi++; fi == len(s.frames) {
				fi = 0
			}
			seq++
			accs[j] = serve.BatchAccess{Seq: seq, PC: fr.PC, Addr: fr.Addr, Value: fr.Value, Reg: fr.Reg,
				BranchHist: fr.BranchHist, Store: fr.Store, Hints: fr.Hints}
		}
		sent := time.Now()
		if !sent.Before(s.to) {
			return nil
		}
		res, err := cl.DecideBatch(accs, nil)
		rtt := time.Since(sent)
		measured := !sent.Before(s.from)
		if err != nil {
			if measured {
				s.failed += uint64(len(accs))
			}
			return fmt.Errorf("session %s: batch at seq %d: %w", s.id, accs[0].Seq, err)
		}
		for j := range res {
			s.note(res[j].Prefetch, res[j].Shadow, res[j].Degraded || res[j].Replayed, measured)
		}
		if measured {
			s.record(sent, rtt)
			s.rttSum += rtt
			s.sample(accs[0].Seq, sent, rtt)
		}
	}
	return ctx.Err()
}

// openLoop sends one access per interval on a fixed schedule and charges
// each decision's latency from its scheduled send. One request is in flight
// at a time, so a reply that arrives after the next send was due delays
// that send: the delay is the daemon's and is charged to the requests it
// holds up. The generator's own lateness, which would be misread as the
// daemon's, is counted from when a send was due or the previous reply
// arrived, whichever is later.
func (s *session) openLoop(ctx context.Context, cl *client.Client) error {
	start := time.Now()
	var seq uint64
	var replied time.Time
	fi := 0
	for k := uint64(0); ctx.Err() == nil; k++ {
		sched := start.Add(time.Duration(k) * s.interval)
		if !sched.Before(s.to) {
			return nil
		}
		if d := time.Until(sched); d > spinWindow {
			time.Sleep(d - spinWindow)
		}
		for time.Now().Before(sched) {
			runtime.Gosched()
		}
		fr := s.frames[fi] // by value: the stream is shared read-only
		if fi++; fi == len(s.frames) {
			fi = 0
		}
		seq++
		fr.Seq = seq
		sent := time.Now()
		dec, err := cl.Decide(&fr)
		done := time.Now()
		measured := !sched.Before(s.from)
		if err != nil {
			if measured {
				s.failed++
			}
			return fmt.Errorf("session %s: seq %d: %w", s.id, seq, err)
		}
		s.note(dec.Prefetch, dec.Shadow, dec.Degraded || dec.Replayed, measured)
		if measured {
			s.record(sched, done.Sub(sched))
			due := sched
			if replied.After(due) {
				due = replied
			}
			s.late = append(s.late, float64(sent.Sub(due).Nanoseconds())/1e3)
			s.rttSum += done.Sub(sent)
			s.sample(seq, sent, done.Sub(sent))
		}
		replied = done
	}
	return ctx.Err()
}

// record files one measured exchange's latency, counted from t.
func (s *session) record(t time.Time, lat time.Duration) {
	s.lat = append(s.lat, float64(lat.Nanoseconds())/1e3)
	s.measured++
	s.lastDone = t.Add(lat)
}

// sample keeps every spanSampleEvery-th measured exchange for the span
// file.
func (s *session) sample(seq uint64, sent time.Time, rtt time.Duration) {
	if s.sampleSpans && s.measured%spanSampleEvery == 0 {
		s.exchanges = append(s.exchanges, exchangeRec{seq: seq, start: sent, rtt: rtt})
	}
}

// note accounts one decision.
func (s *session) note(prefetch, shadow []uint64, shed, measured bool) {
	if shed {
		if measured {
			s.failed++
		}
		return
	}
	s.received++
	if measured {
		s.decisions++
	}
	if s.hash {
		s.hashSum = foldDecision(s.hashSum, prefetch, shadow)
		s.hashed++
	}
}
