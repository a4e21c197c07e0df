package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"semloc/internal/core"
)

// buildSnapshot trains a learner a little and wraps it as a one-session
// snapshot, so tests exercise non-trivial table state.
func buildSnapshot(t testing.TB, id string, accesses int) *Snapshot {
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

// flipPayloadDigit returns a copy of a snapshot file with one digit of its
// payload changed, so the envelope still parses and only the CRC can
// tell.
func flipPayloadDigit(t testing.TB, file []byte) []byte {
	t.Helper()
	b := append([]byte(nil), file...)
	start := bytes.Index(b, []byte(`"payload":`))
	if start < 0 {
		t.Fatal("snapshot file has no payload")
	}
	for i := start; i < len(b); i++ {
		if b[i] >= '1' && b[i] <= '8' {
			b[i]++
			return b
		}
	}
	t.Fatal("snapshot payload has no digit to flip")
	return nil
}

// schema1File renders snap in the envelope schema 1 wrote: the payload
// with a hex SHA-256 of its bytes.
func schema1File(t testing.TB, snap *Snapshot) []byte {
	t.Helper()
	payload, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(payload)
	env, err := json.Marshal(struct {
		Schema  int             `json:"schema"`
		SHA256  string          `json:"sha256"`
		Payload json.RawMessage `json:"payload"`
	}{1, hex.EncodeToString(sum[:]), payload})
	if err != nil {
		t.Fatal(err)
	}
	return append(env, '\n')
}

// TestSnapshotDetectsCorruption feeds LoadSnapshot and the daemon's boot
// (NewServer) files it cannot verify; both must refuse each one.
func TestSnapshotDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	snap := buildSnapshot(t, "s", 100)
	if err := SaveSnapshot(path, snap); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name, want string
		file       []byte
	}{
		{"bitflip.snap", "checksum mismatch", flipPayloadDigit(t, raw)},
		{"schema1.snap", "schema 1, want 2: this daemon cannot verify it; delete the file to cold-start", schema1File(t, snap)},
		{"trunc.snap", "parsing snapshot envelope", raw[:len(raw)/2]},
		{"garbage.snap", "parsing snapshot envelope", []byte("not a snapshot")},
	} {
		p := filepath.Join(dir, tc.name)
		if err := os.WriteFile(p, tc.file, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSnapshot(p); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: LoadSnapshot error %v, want one saying %q", tc.name, err, tc.want)
		}
		if _, err := NewServer(Config{SnapshotPath: p}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: boot error %v, want one saying %q", tc.name, err, tc.want)
		}
	}
}

// TestSnapshotRejectsBadSessions covers what the CRC cannot: a
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

// FuzzLoadSnapshot checks the snapshot parser a daemon boots from on
// arbitrary bytes: each input, read as a whole file and as the payload of
// an envelope with the right CRC (which mutation alone almost never
// produces), must be refused or give a snapshot that, written back
// through the envelope code, parses back deeply equal.
func FuzzLoadSnapshot(f *testing.F) {
	two := buildSnapshot(f, "a", 40)
	two.Sessions = append(two.Sessions, buildSnapshot(f, "b", 20).Sessions...)
	valid, err := encodeSnapshot(two)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := parseSnapshot(valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, bad := range [][]byte{flipPayloadDigit(f, valid), valid[:len(valid)/2], schema1File(f, two)} {
		if _, err := parseSnapshot(bad); err == nil {
			f.Fatalf("seed %.40q... parsed", bad)
		}
		f.Add(bad)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		wrapped := fmt.Appendf(nil, `{"schema":%d,"crc64":%d,"payload":%s}`,
			SnapshotSchema, crc64.Checksum(data, crc64.MakeTable(crc64.ECMA)), data)
		for _, raw := range [][]byte{data, wrapped} {
			snap, err := parseSnapshot(raw)
			if err != nil {
				continue
			}
			again, err := encodeSnapshot(snap)
			if err != nil {
				t.Fatalf("encoding a parsed snapshot: %v", err)
			}
			back, err := parseSnapshot(again)
			if err != nil {
				t.Fatalf("written back, the snapshot is refused: %v", err)
			}
			if !reflect.DeepEqual(back, snap) {
				t.Fatalf("written back, the snapshot parses as %+v, not %+v", back, snap)
			}
		}
	})
}
