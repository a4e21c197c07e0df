package trace

import (
	"bytes"
	"io"
	"math"
	"testing"
	"unsafe"

	"semloc/internal/memmodel"
)

// records copies every record of tr out of a cursor.
func records(tr *Trace) []Record {
	out := make([]Record, 0, tr.Len())
	c := tr.Cursor()
	for c.Next() {
		out = append(out, *c.Record())
	}
	return out
}

// fromRecords builds a trace from record literals.
func fromRecords(name string, recs ...Record) *Trace {
	e := NewEmitter(name)
	for _, r := range recs {
		e.Append(r)
	}
	return e.Finish()
}

// sameRecords fails the test unless got and want hold the same records.
func sameRecords(t *testing.T, got, want *Trace) {
	t.Helper()
	g, w := records(got), records(want)
	if len(g) != len(w) {
		t.Fatalf("record count %d != %d", len(g), len(w))
	}
	for i := range w {
		if g[i] != w[i] {
			t.Fatalf("record %d: got %+v want %+v", i, g[i], w[i])
		}
	}
}

// decodableRecords returns records of every kind, covering each flag
// combination the decoder accepts, every reference form, 64-bit extremes
// of PC, Addr, Value and Reg, NoDep and the largest compute count it
// accepts. BranchHist is left random: Append must ignore it.
func decodableRecords(rng *memmodel.RNG) []Record {
	u64 := func() uint64 {
		switch rng.Intn(4) {
		case 0:
			return math.MaxUint64
		case 1:
			return 1 << 63
		default:
			return rng.Uint64() | 1
		}
	}
	counts := []uint32{1, 1 << 31, uint32(1 + rng.Intn(1000))}
	var recs []Record
	lastLoad := NoDep
	for kind := KindLoad; kind <= KindStore; kind++ {
		for flags := 0; flags < 1<<5; flags++ {
			for rf := RefNone; rf < refFormCount; rf++ {
				r := Record{Kind: kind, PC: u64(), Addr: memmodel.Addr(u64()), Size: uint8(1 + rng.Intn(255)),
					Dep: NoDep, Taken: flags&flagTaken != 0, BranchHist: uint16(rng.Uint64())}
				if flags&flagHints != 0 {
					r.Hints = SWHints{Valid: true, TypeID: uint16(rng.Uint64()), LinkOffset: uint16(rng.Uint64()), RefForm: rf}
				}
				if flags&flagDep != 0 {
					r.Dep = lastLoad
				}
				if flags&flagValue != 0 {
					r.Value = u64()
				}
				if flags&flagReg != 0 {
					r.Reg = u64()
				}
				if kind == KindLoad {
					lastLoad = int32(len(recs))
				}
				recs = append(recs, r,
					Record{Kind: KindBranch, PC: u64(), Dep: NoDep, Taken: rng.Intn(2) == 0},
					Record{Kind: KindCompute, Count: counts[rng.Intn(len(counts))], Dep: NoDep, Taken: rng.Intn(2) == 0})
			}
		}
	}
	return append(recs, Record{Kind: KindWarmupEnd, Dep: NoDep}, Record{Kind: KindWarmupEnd, Dep: NoDep, Taken: true})
}

// TestCursorReturnsAppendedRecords proves the compact layout keeps every
// field: each record appended reads back from a cursor unchanged, with
// BranchHist derived from the branches before it, and survives the codec.
func TestCursorReturnsAppendedRecords(t *testing.T) {
	recs := decodableRecords(memmodel.NewRNG(7))
	tr := fromRecords("prop", recs...)
	var hist uint16
	accesses := 0
	for i := range recs {
		recs[i].BranchHist = hist
		switch recs[i].Kind {
		case KindBranch:
			hist <<= 1
			if recs[i].Taken {
				hist |= 1
			}
		case KindLoad, KindStore:
			accesses++
		}
	}
	got := records(tr)
	if len(got) != len(recs) || tr.Len() != len(recs) || tr.Accesses() != accesses {
		t.Fatalf("read %d records (Len %d, Accesses %d), appended %d with %d accesses",
			len(got), tr.Len(), tr.Accesses(), len(recs), accesses)
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], recs[i])
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, back, tr)
}

// TestStorageFootprint pins the layout's byte budget: a 16-byte op per
// record, a 32-byte payload per load or store, both arrays exactly sized.
func TestStorageFootprint(t *testing.T) {
	if s := unsafe.Sizeof(op{}); s != 16 {
		t.Errorf("op is %d bytes, want 16", s)
	}
	if s := unsafe.Sizeof(payload{}); s != 32 {
		t.Errorf("payload is %d bytes, want 32", s)
	}
	tr := benchTrace(3*chunkLen + 100) // several chunks of each
	if len(tr.ops) <= 2*chunkLen || len(tr.accs) <= chunkLen {
		t.Fatalf("trace of %d ops, %d payloads spans too few chunks", len(tr.ops), len(tr.accs))
	}
	if cap(tr.ops) != len(tr.ops) || cap(tr.accs) != len(tr.accs) {
		t.Errorf("after Finish: ops len %d cap %d, payloads len %d cap %d",
			len(tr.ops), cap(tr.ops), len(tr.accs), cap(tr.accs))
	}
}

// TestBranchHistories pins the derived branch-history attribute: each
// record sees the global 16-bit history of the branches before it, newest
// outcome in bit 0, identically from a Cursor and from the Reader.
func TestBranchHistories(t *testing.T) {
	e := NewEmitter("bh")
	e.Branch(0x1, true)
	e.Load(0x2, 0x100)
	e.Branch(0x3, false)
	e.Branch(0x4, true)
	e.Load(0x5, 0x200)
	for i := 0; i < 17; i++ {
		e.Branch(0x6, true)
	}
	e.Store(0x7, 0x300)
	tr := e.Finish()
	want := []uint16{0, 0b1, 0b1, 0b10, 0b101}
	for hist := uint16(0b101); len(want) < tr.Len(); {
		want = append(want, hist)
		hist = hist<<1 | 1
	}
	if want[len(want)-1] != 0xffff {
		t.Fatalf("test setup: final history %#x, want 0xffff", want[len(want)-1])
	}
	c := tr.Cursor()
	for c.Next() {
		if got := c.Record().BranchHist; got != want[c.Index()] {
			t.Errorf("cursor record %d: history %#b, want %#b", c.Index(), got, want[c.Index()])
		}
	}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	sr, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	for i := 0; ; i++ {
		if err := sr.Next(&rec); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if rec.BranchHist != want[i] {
			t.Errorf("reader record %d: history %#b, want %#b", i, rec.BranchHist, want[i])
		}
	}
}
