package serve

import (
	"encoding/json"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
)

// SnapshotSchema versions the daemon snapshot envelope (the per-learner
// encoding is versioned separately by core.StateSchema). Schema 2 guards
// the payload with a CRC-64; schema 1 guarded it with a SHA-256.
const SnapshotSchema = 2

// Snapshot is the daemon's durable state: every live session, sorted by
// id so marshaling is deterministic.
type Snapshot struct {
	Sessions []SessionSnapshot `json:"sessions"`
}

// snapshotFile is the on-disk envelope: the payload bytes plus a CRC-64
// (ECMA) of exactly those bytes, so a torn or bit-flipped file is detected
// at restore instead of silently warm-starting a corrupt learner. The CRC
// guards against accidents, not forgery: whoever can write the file could
// recompute any digest of it.
type snapshotFile struct {
	Schema  int             `json:"schema"`
	CRC64   uint64          `json:"crc64"`
	Payload json.RawMessage `json:"payload"`
}

// encodeSnapshot renders snap as the envelope SaveSnapshot writes.
func encodeSnapshot(snap *Snapshot) ([]byte, error) {
	payload, err := json.Marshal(snap)
	if err != nil {
		return nil, fmt.Errorf("serve: encoding snapshot: %w", err)
	}
	env, err := json.Marshal(snapshotFile{
		Schema:  SnapshotSchema,
		CRC64:   crc64.Checksum(payload, crc64.MakeTable(crc64.ECMA)),
		Payload: payload,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: encoding snapshot envelope: %w", err)
	}
	return append(env, '\n'), nil
}

// SaveSnapshot atomically persists snap at path: the envelope is written
// to a temp file in the same directory and renamed into place, so readers
// only ever observe a complete previous or complete new snapshot.
func SaveSnapshot(path string, snap *Snapshot) error {
	env, err := encodeSnapshot(snap)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("serve: snapshot temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(env); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("serve: writing snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("serve: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("serve: closing snapshot: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("serve: installing snapshot: %w", err)
	}
	return nil
}

// LoadSnapshot reads and verifies a snapshot (see parseSnapshot). A
// missing file is not an error: it returns (nil, nil) — the cold-start
// case.
func LoadSnapshot(path string) (*Snapshot, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: reading snapshot: %w", err)
	}
	return parseSnapshot(raw)
}

// parseSnapshot verifies a snapshot file's bytes: the schema, the CRC,
// then every session — a nonempty id no other session has, a valid
// learner, and a replay cache whose seqs are nonzero, strictly ascending
// and at most the session's LastSeq.
func parseSnapshot(raw []byte) (*Snapshot, error) {
	var env snapshotFile
	if err := json.Unmarshal(raw, &env); err != nil {
		return nil, fmt.Errorf("serve: parsing snapshot envelope: %w", err)
	}
	if env.Schema != SnapshotSchema {
		return nil, fmt.Errorf("serve: snapshot schema %d, want %d: this daemon cannot verify it; delete the file to cold-start",
			env.Schema, SnapshotSchema)
	}
	if got := crc64.Checksum(env.Payload, crc64.MakeTable(crc64.ECMA)); got != env.CRC64 {
		return nil, fmt.Errorf("serve: snapshot checksum mismatch: file says %#x, payload hashes to %#x", env.CRC64, got)
	}
	var snap Snapshot
	if err := json.Unmarshal(env.Payload, &snap); err != nil {
		return nil, fmt.Errorf("serve: parsing snapshot payload: %w", err)
	}
	seen := make(map[string]bool, len(snap.Sessions))
	for i := range snap.Sessions {
		ss := &snap.Sessions[i]
		if ss.ID == "" {
			return nil, fmt.Errorf("serve: snapshot session %d has empty id", i)
		}
		if seen[ss.ID] {
			return nil, fmt.Errorf("serve: snapshot holds session %s twice", ss.ID)
		}
		seen[ss.ID] = true
		if err := ss.Learner.Validate(); err != nil {
			return nil, fmt.Errorf("serve: snapshot session %s: %w", ss.ID, err)
		}
		var prev uint64
		for _, e := range ss.Replay {
			switch {
			case e.Seq <= prev:
				return nil, fmt.Errorf("serve: snapshot session %s: replay seq %d after %d, want nonzero and ascending",
					ss.ID, e.Seq, prev)
			case e.Seq > ss.LastSeq:
				return nil, fmt.Errorf("serve: snapshot session %s: replay seq %d above last seq %d",
					ss.ID, e.Seq, ss.LastSeq)
			}
			prev = e.Seq
		}
	}
	return &snap, nil
}
