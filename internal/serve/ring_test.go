package serve

import (
	"encoding/json"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// The replay ring overwrites its oldest slot in place. These tests pin
// the three places that reuse could leak into a reply or a snapshot: a
// resend whose replayed prefix lives in the slot its fresh tail
// overwrites, a snapshot encoded while the worker goes on rewriting
// slots, and a ring rebuilt from a snapshot.

// decisionLog records the fresh decisions a client was sent, by seq.
type decisionLog map[uint64]BatchDecision

// record logs every fresh result of a batch reply and returns it.
func (dl decisionLog) record(t *testing.T, f *Frame) *Frame {
	t.Helper()
	if f.Type != FrameBatch {
		t.Fatalf("want a batch reply, got %s (%s: %s)", f.Type, f.Code, f.Msg)
	}
	for _, d := range f.Results {
		if !d.Replayed && d.Code == "" {
			dl[d.Seq] = d
		}
	}
	return f
}

// check asserts that a resent batch came back replayed with the original
// decisions where replayed(seq) holds, and stale elsewhere, and returns
// how many replayed decisions carried addresses.
func (dl decisionLog) check(t *testing.T, f *Frame, replayed func(seq uint64) bool) (withAddrs int) {
	t.Helper()
	if f.Type != FrameBatch {
		t.Fatalf("want a batch reply, got %s (%s: %s)", f.Type, f.Code, f.Msg)
	}
	for _, d := range f.Results {
		if !replayed(d.Seq) {
			if d.Code != CodeStaleSeq {
				t.Fatalf("seq %d: want stale-seq, got replayed=%v code=%q", d.Seq, d.Replayed, d.Code)
			}
			continue
		}
		want, ok := dl[d.Seq]
		if !ok {
			t.Fatalf("seq %d: no original decision logged", d.Seq)
		}
		if !d.Replayed || !equalU64(d.Prefetch, want.Prefetch) || !equalU64(d.Shadow, want.Shadow) {
			t.Fatalf("seq %d: replayed=%v %v/%v, want the original %v/%v",
				d.Seq, d.Replayed, d.Prefetch, d.Shadow, want.Prefetch, want.Shadow)
		}
		if len(d.Prefetch)+len(d.Shadow) > 0 {
			withAddrs++
		}
	}
	return withAddrs
}

// TestServerResendOverwritesItsReplayedSlot: with two slots holding the
// spans [505..508] and [509..512], the resend [505..516] replays 505..508
// from the oldest slot, which its fresh tail 513..516 then overwrites
// from the start, and must still get back the original decisions.
func TestServerResendOverwritesItsReplayedSlot(t *testing.T) {
	s := startServer(t, Config{ReplayDepth: 2})
	tc := dialServer(t, s)
	tc.helloBatch("overwrite", 16)
	dl := decisionLog{}
	for first := uint64(1); first <= 512; first += 4 {
		dl.record(t, tc.batch(first, 4))
	}
	got := dl.record(t, tc.batch(505, 12))
	if n := dl.check(t, &Frame{Type: FrameBatch, Results: got.Results[:8]},
		func(uint64) bool { return true }); n == 0 {
		t.Fatal("no replayed decision carried addresses: the test cannot tell slots apart")
	}
	for _, d := range got.Results[8:] {
		if d.Replayed || d.Code != "" {
			t.Fatalf("seq %d: want a fresh decision, got replayed=%v code=%q", d.Seq, d.Replayed, d.Code)
		}
	}
	// The fresh tail took the oldest slot: 505..508 are gone, 509..516
	// replay.
	dl.check(t, tc.batch(505, 12), func(seq uint64) bool { return seq >= 509 })
}

// TestReplayRingOverwritesInPlace: once every slot has held a span, spans
// of the same shape reuse the slots' entries and address buffers, never
// growing them, and still resolve to their own decisions.
func TestReplayRingOverwritesInPlace(t *testing.T) {
	var r replayRing
	r.init(4)
	span := make([]ReplayEntry, 16)
	var seq uint64
	put := func() {
		for i := range span {
			seq++
			span[i] = ReplayEntry{Seq: seq, Prefetch: []uint64{seq * 64, seq*64 + 64}, Shadow: []uint64{seq * 128}}
		}
		r.putSpan(span)
	}
	capacity := func() (n int) {
		for i := range r.spans {
			n += cap(r.spans[i].entries) + cap(r.spans[i].addrs)
		}
		return n
	}
	for range r.spans {
		put()
	}
	warm := capacity()
	for i := 0; i < 1000; i++ {
		put()
	}
	if got := capacity(); got != warm {
		t.Fatalf("slot capacity went %d → %d over 1000 spans of one shape, want unchanged", warm, got)
	}
	for q := seq - 63; q <= seq; q++ {
		e, ok := r.get(q)
		if !ok || e.Seq != q || !equalU64(e.Prefetch, []uint64{q * 64, q*64 + 64}) || !equalU64(e.Shadow, []uint64{q * 128}) {
			t.Fatalf("seq %d: got %+v (ok=%v), want its own decision", q, e, ok)
		}
	}
}

// TestSnapshotWhileServing encodes snapshots on another goroutine while a
// session keeps serving, as the periodic snapshotter does: each must hold
// exactly the decisions the client was sent, up to its LastSeq. A
// snapshot sharing the ring's buffers would read slots the worker
// rewrites (the race detector flags it) and could carry later decisions.
func TestSnapshotWhileServing(t *testing.T) {
	const depth, span = 4, 8
	s := startServer(t, Config{ReplayDepth: depth})
	tc := dialServer(t, s)
	tc.helloBatch("live", 16)

	var taken atomic.Int64
	stop := make(chan struct{})
	snaps := make(chan [][]byte, 1)
	go func() {
		var out [][]byte
		for {
			select {
			case <-stop:
				snaps <- out
				return
			default:
			}
			b, err := json.Marshal(s.Snapshot())
			if err != nil {
				panic(err)
			}
			out = append(out, b)
			taken.Add(1)
		}
	}()
	dl := decisionLog{}
	var first uint64 = 1
	for ; first <= 200*span || taken.Load() < 20; first += span {
		if first > 200_000 {
			t.Fatal("the snapshotter took fewer than 20 snapshots")
		}
		dl.record(t, tc.batch(first, span))
	}
	close(stop)

	mid := 0
	for _, b := range <-snaps {
		var snap Snapshot
		if err := json.Unmarshal(b, &snap); err != nil {
			t.Fatal(err)
		}
		if len(snap.Sessions) != 1 {
			t.Fatalf("snapshot holds %d sessions, want 1", len(snap.Sessions))
		}
		ss := snap.Sessions[0]
		if ss.LastSeq%span != 0 {
			t.Fatalf("snapshot at LastSeq %d: not at a request boundary", ss.LastSeq)
		}
		if ss.LastSeq > 0 && ss.LastSeq < first-1 {
			mid++
		}
		want := min(ss.LastSeq, depth*span)
		if uint64(len(ss.Replay)) != want {
			t.Fatalf("snapshot at LastSeq %d holds %d decisions, want %d", ss.LastSeq, len(ss.Replay), want)
		}
		for i, e := range ss.Replay {
			d := dl[e.Seq]
			if e.Seq != ss.LastSeq-want+1+uint64(i) || !equalU64(e.Prefetch, d.Prefetch) || !equalU64(e.Shadow, d.Shadow) {
				t.Fatalf("snapshot at LastSeq %d: entry %d is seq %d %v/%v, want the decision sent for seq %d %v/%v",
					ss.LastSeq, i, e.Seq, e.Prefetch, e.Shadow, ss.LastSeq-want+1+uint64(i), d.Prefetch, d.Shadow)
			}
		}
	}
	if mid == 0 {
		t.Fatal("no snapshot landed while the session was serving")
	}
}

// TestRestoredRingServesEvictsAndReplays drives a session whose ring came
// back from a snapshot: the restored span replays the original decisions,
// fresh spans fill the empty slot and then overwrite the restored one in
// place, and what they evict turns stale while the rest still replays.
func TestRestoredRingServesEvictsAndReplays(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ring.snap")
	cfg := Config{SnapshotPath: path, ReplayDepth: 2}
	s1, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Start(); err != nil {
		t.Fatal(err)
	}
	tc := dialServer(t, s1)
	tc.helloBatch("ring", 16)
	dl := decisionLog{}
	for first := uint64(1); first <= 96; first += 8 {
		dl.record(t, tc.batch(first, 8))
	}
	if err := s1.Close(); err != nil { // writes 81..96 as one flat run
		t.Fatal(err)
	}

	s2 := startServer(t, cfg)
	tc2 := dialServer(t, s2)
	if w := tc2.helloBatch("ring", 16); !w.Resumed || w.LastSeq != 96 {
		t.Fatalf("warm attach: resumed=%v lastSeq=%d, want true/96", w.Resumed, w.LastSeq)
	}
	all := func(uint64) bool { return true }
	// One restored span [81..96] in one slot; the other slot is empty.
	if n := dl.check(t, tc2.batch(81, 16), all); n == 0 {
		t.Fatal("no restored decision carried addresses: the test cannot tell slots apart")
	}
	dl.record(t, tc2.batch(97, 8)) // fills the empty slot
	dl.check(t, tc2.batch(89, 16), all)
	dl.record(t, tc2.batch(105, 8)) // overwrites the restored slot in place
	dl.check(t, tc2.batch(89, 16), func(seq uint64) bool { return seq >= 97 })
	dl.check(t, tc2.batch(97, 16), all)
	dl.record(t, tc2.batch(113, 8)) // and evicts 97..104 in turn
	dl.check(t, tc2.batch(97, 16), func(seq uint64) bool { return seq >= 105 })
}
