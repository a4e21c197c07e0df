package serve

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"semloc/internal/core"
)

// buildSnapshot trains a learner a little and wraps it as a one-session
// snapshot, so tests exercise non-trivial table state.
func buildSnapshot(t *testing.T, id string, accesses int) *Snapshot {
	t.Helper()
	l, err := NewLearner(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var pf, sh []uint64
	for i := 0; i < accesses; i++ {
		pf, sh = l.DecideAccess(&BatchAccess{Seq: uint64(i + 1),
			PC: 0x400000, Addr: uint64(0x10000 + i*64)})
	}
	ss := SessionSnapshot{ID: id, LastSeq: uint64(accesses), Learner: l.Save()}
	if accesses > 0 {
		ss.Replay = []ReplayEntry{{Seq: ss.LastSeq, Prefetch: pf, Shadow: sh}}
	}
	return &Snapshot{Sessions: []SessionSnapshot{ss}}
}

func TestSnapshotSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	snap := buildSnapshot(t, "sess-a", 500)

	if err := SaveSnapshot(path, snap); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(snap)
	b, _ := json.Marshal(got)
	if string(a) != string(b) {
		t.Fatal("snapshot drifted through save/load")
	}

	// Saving the loaded snapshot again must produce identical file bytes
	// (rename-on-write means no timestamps or nondeterminism in the file).
	path2 := filepath.Join(dir, "state2.snap")
	if err := SaveSnapshot(path2, got); err != nil {
		t.Fatal(err)
	}
	f1, _ := os.ReadFile(path)
	f2, _ := os.ReadFile(path2)
	if string(f1) != string(f2) {
		t.Fatal("snapshot file bytes drifted through a save/load/save cycle")
	}
}

func TestSnapshotMissingFileIsColdStart(t *testing.T) {
	got, err := LoadSnapshot(filepath.Join(t.TempDir(), "nope.snap"))
	if err != nil || got != nil {
		t.Fatalf("missing snapshot: got %v, %v; want nil, nil", got, err)
	}
}

func TestSnapshotDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	if err := SaveSnapshot(path, buildSnapshot(t, "s", 100)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	flip := func(name string, mutate func([]byte) []byte) {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, mutate(append([]byte(nil), raw...)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSnapshot(p); err == nil {
			t.Fatalf("%s: corrupt snapshot loaded", name)
		}
	}
	// Flip one byte inside the payload: checksum must catch it. Find a
	// digit in the payload region and change it.
	flip("bitflip.snap", func(b []byte) []byte {
		for i := len(b) / 2; i < len(b); i++ {
			if b[i] >= '1' && b[i] <= '8' {
				b[i]++
				break
			}
		}
		return b
	})
	// Truncate: envelope no longer parses.
	flip("trunc.snap", func(b []byte) []byte { return b[:len(b)/2] })
	// Garbage.
	flip("garbage.snap", func(b []byte) []byte { return []byte("not a snapshot") })
}

// TestSnapshotRejectsBadSessions covers what the checksum cannot: a
// snapshot written whole whose sessions a restore would corrupt. Two
// sessions under one id would start two workers while the store keeps
// only the second; a replay cache with a zero, repeated or descending
// seq, or one above its session's LastSeq, would replay decisions for
// seqs the learner never applied.
func TestSnapshotRejectsBadSessions(t *testing.T) {
	dir := t.TempDir()
	bad := func(name string, mutate func(*Snapshot)) {
		t.Helper()
		snap := buildSnapshot(t, "s", 100)
		mutate(snap)
		p := filepath.Join(dir, name)
		if err := SaveSnapshot(p, snap); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSnapshot(p); err == nil {
			t.Fatalf("%s: corrupt snapshot loaded", name)
		}
		if _, err := NewServer(Config{SnapshotPath: p}); err == nil {
			t.Fatalf("%s: server booted on a corrupt snapshot", name)
		}
	}
	bad("duplicate-id.snap", func(s *Snapshot) {
		s.Sessions = append(s.Sessions, s.Sessions[0])
	})
	bad("replay-seq-zero.snap", func(s *Snapshot) {
		s.Sessions[0].Replay[0].Seq = 0
	})
	bad("replay-not-ascending.snap", func(s *Snapshot) {
		e := s.Sessions[0].Replay[0]
		s.Sessions[0].Replay = []ReplayEntry{e, e}
	})
	bad("replay-above-last-seq.snap", func(s *Snapshot) {
		s.Sessions[0].LastSeq--
	})
}

func TestSnapshotRejectsBadLearnerState(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	snap := buildSnapshot(t, "s", 10)
	snap.Sessions[0].Learner.Schema = 99
	if err := SaveSnapshot(path, snap); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(path); err == nil {
		t.Fatal("snapshot with bad learner schema loaded")
	}
}

func TestSnapshotAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	if err := SaveSnapshot(path, buildSnapshot(t, "one", 50)); err != nil {
		t.Fatal(err)
	}
	if err := SaveSnapshot(path, buildSnapshot(t, "two", 80)); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Sessions) != 1 || got.Sessions[0].ID != "two" {
		t.Fatalf("second save not visible: %+v", got.Sessions)
	}
	// No temp litter left behind.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("snapshot dir has %d entries, want just the snapshot", len(ents))
	}
}
