package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
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

// The optional fields of a load or store, one bit each.
const (
	withTaken = 1 << iota
	withHints
	withDep
	withValue
	withReg
)

// decodableRecords returns records of every kind, covering each
// combination of optional fields, every reference form, 64-bit extremes
// of PC, Addr, Value and Reg, NoDep and the largest compute count Read
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
					Dep: NoDep, Taken: flags&withTaken != 0, BranchHist: uint16(rng.Uint64())}
				if flags&withHints != 0 {
					r.Hints = SWHints{Valid: true, TypeID: uint16(rng.Uint64()), LinkOffset: uint16(rng.Uint64()), RefForm: rf}
				}
				if flags&withDep != 0 {
					r.Dep = lastLoad
				}
				if flags&withValue != 0 {
					r.Value = u64()
				}
				if flags&withReg != 0 {
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

// opKey is a record's op: the record less Addr, Value, Reg and
// BranchHist, with its Dep as a distance back or none.
type opKey struct {
	r     Record
	dist  int64
	noDep bool
}

// streamBytes returns the distinct ops of tr's records and the lengths
// its streams must have: for each load and store not kept whole, the
// varints of its Addr and Value differences from the last access of its
// op, and of its Reg difference when some such access has a nonzero Reg.
func streamBytes(tr *Trace) (ops map[opKey]bool, pay, regs int) {
	ops = map[opKey]bool{}
	prev := map[opKey]Record{}
	varint := func(d uint64) int { return len(binary.AppendVarint(nil, int64(d))) }
	anyReg := false
	c := tr.Cursor()
	for c.Next() {
		r := *c.Record()
		k := opKey{r: r, noDep: r.Dep == NoDep}
		if !k.noDep {
			k.dist = int64(c.Index()) - int64(r.Dep)
		}
		k.r.Addr, k.r.Value, k.r.Reg, k.r.Dep, k.r.BranchHist = 0, 0, 0, 0, 0
		ops[k] = true
		if !r.IsMem() || tr.ops[c.Index()] >= escLoad {
			continue
		}
		p := prev[k]
		pay += varint(uint64(r.Addr)-uint64(p.Addr)) + varint(r.Value-p.Value)
		regs += varint(r.Reg - p.Reg)
		anyReg = anyReg || r.Reg != 0
		prev[k] = r
	}
	if !anyReg {
		regs = 0
	}
	return ops, pay, regs
}

// TestAppendKeepsWhatWriteEncodes appends a record of every kind with
// every field set, Hints included but not Valid: each must read back with
// only the fields Write encodes for its kind (the model's drops), so the
// trace comes back from Write→Read with the same records and checksum.
func TestAppendKeepsWhatWriteEncodes(t *testing.T) {
	m := newModel("drops")
	m.load(&MemSpec{PC: 0x10, Addr: 0x80, Dep: -1}) // the producer of each Dep below
	for _, k := range []Kind{KindCompute, KindBranch, KindWarmupEnd, KindLoad, KindStore} {
		m.append(Record{Kind: k, PC: 0x40, Addr: 0x1000, Value: 7, Reg: 9, Dep: 0, Count: 5, Size: 4, Taken: true,
			BranchHist: 3, Hints: SWHints{TypeID: 2, LinkOffset: 8, RefForm: RefArrow}})
	}
	tr := m.finish(t)
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
	if back.checksum() != tr.checksum() {
		t.Errorf("checksum %#x read back as %#x", tr.checksum(), back.checksum())
	}
}

// TestStorageFootprint pins the layout's byte budget: one op byte per
// record, the exact varint lengths of each access's differences, a table
// of exactly the trace's distinct ops, every array exactly sized, and no
// Reg stream unless some access has a nonzero Reg.
func TestStorageFootprint(t *testing.T) {
	tr := benchTrace(3*chunkLen + 100) // several chunks of each
	if len(tr.ops) <= 2*chunkLen || len(tr.pay) <= 2*chunkLen {
		t.Fatalf("trace of %d ops, %d payload bytes spans too few chunks", len(tr.ops), len(tr.pay))
	}
	if tr.regs != nil {
		t.Errorf("every Reg is zero, yet the trace has a Reg stream of %d bytes", len(tr.regs))
	}
	ops, pay, _ := streamBytes(tr)
	if len(tr.table) != len(ops) {
		t.Errorf("table of %d entries for %d distinct ops", len(tr.table), len(ops))
	}
	if len(tr.pay) != pay {
		t.Errorf("payload stream of %d bytes, want %d", len(tr.pay), pay)
	}
	n, whole := tr.Footprint()
	if want := 1*len(tr.ops) + pay + int(unsafe.Sizeof(entry{}))*len(ops); n != want || whole != 0 {
		t.Errorf("Footprint %d bytes, %d whole; want %d bytes, 0 whole", n, whole, want)
	}
	// Read loads the sections Write dumped: the same layout.
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if bn, bw := back.Footprint(); bn != n || bw != 0 {
		t.Errorf("decoded: Footprint %d bytes, %d whole; want %d bytes, 0 whole", bn, bw, n)
	}

	e := NewEmitter("reg")
	for i := 0; i < 2*chunkLen; i++ {
		e.LoadSpec(&MemSpec{PC: 0x10, Addr: memmodel.Addr(64 * i), Reg: uint64(i / chunkLen), Dep: -1})
		e.Compute(1)
	}
	e.Store(0x20, 0x40) // the stream covers the accesses after the last nonzero Reg
	tr = e.Finish()
	// Every Reg difference is 0 or 1: one byte per access.
	if _, _, regs := streamBytes(tr); len(tr.regs) != regs || regs != tr.Accesses() {
		t.Fatalf("Reg stream of %d bytes, want %d for %d accesses", len(tr.regs), regs, tr.Accesses())
	}
	for name, lc := range map[string][2]int{
		"ops": {len(tr.ops), cap(tr.ops)}, "pay": {len(tr.pay), cap(tr.pay)},
		"regs": {len(tr.regs), cap(tr.regs)}, "table": {len(tr.table), cap(tr.table)},
	} {
		if lc[0] != lc[1] {
			t.Errorf("after Finish: %s len %d cap %d", name, lc[0], lc[1])
		}
	}
	recs := records(tr)
	for i, r := range recs[:len(recs)-1] {
		if want := uint64(i / 2 / chunkLen); r.IsMem() && r.Reg != want {
			t.Fatalf("record %d: Reg %d, want %d", i, r.Reg, want)
		}
	}
	if r := recs[len(recs)-1]; r.Reg != 0 {
		t.Errorf("final store: Reg %d, want 0", r.Reg)
	}
}

// TestBranchHistories pins the derived branch-history attribute: each
// record sees the global 16-bit history of the branches before it, newest
// outcome in bit 0, identically from a Cursor over the trace and over its
// Write→Read copy.
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
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range records(back) {
		if r.BranchHist != want[i] {
			t.Errorf("read back, record %d: history %#b, want %#b", i, r.BranchHist, want[i])
		}
	}
}

// model mirrors an Emitter with the plain list of records a cursor must
// read back from it: each call applies the Emitter's documented rules.
type model struct {
	e      *Emitter
	recs   []Record
	lenErr string // set by sync
}

// sync notes the first call after which the emitter's Len disagrees with
// the model's record count.
func (m *model) sync(call string) {
	if n := m.e.Len(); n != len(m.recs) && m.lenErr == "" {
		m.lenErr = fmt.Sprintf("Len %d after %s, want %d", n, call, len(m.recs))
	}
}

func newModel(name string) *model { return &model{e: NewEmitter(name)} }

// append applies Append's drops: a record keeps Kind and Taken, and
// the fields Write encodes for its kind.
func (m *model) append(r Record) {
	m.e.Append(r)
	kept := Record{Kind: r.Kind, Taken: r.Taken, Dep: NoDep}
	switch r.Kind {
	case KindLoad, KindStore:
		kept.PC, kept.Addr, kept.Value, kept.Reg, kept.Size, kept.Dep = r.PC, r.Addr, r.Value, r.Reg, r.Size, r.Dep
		if r.Hints.Valid {
			kept.Hints = r.Hints
		}
	case KindBranch:
		kept.PC = r.PC
	case KindCompute:
		kept.Count = r.Count
	case KindWarmupEnd:
	default:
		kept.PC, kept.Size, kept.Dep = r.PC, r.Size, r.Dep
	}
	m.recs = append(m.recs, kept)
	m.sync("Append")
}

// compute merges into a compute record before it.
func (m *model) compute(n int) {
	m.e.Compute(n)
	if n <= 0 {
		return
	}
	if k := len(m.recs) - 1; k >= 0 && m.recs[k].Kind == KindCompute {
		m.recs[k].Count += uint32(n)
	} else {
		m.recs = append(m.recs, Record{Kind: KindCompute, Count: uint32(n), Dep: NoDep})
	}
	m.sync("Compute")
}

// load defaults the size to 8 and drops Hints that are not Valid and a
// Dep that is not an earlier record.
func (m *model) load(s *MemSpec) int {
	i := m.e.LoadSpec(s)
	r := Record{Kind: KindLoad, PC: s.PC, Addr: s.Addr, Size: s.Size, Value: s.Value, Reg: s.Reg, Dep: NoDep}
	if r.Size == 0 {
		r.Size = 8
	}
	if s.Hints.Valid {
		r.Hints = s.Hints
	}
	if s.Dep >= 0 && s.Dep < i {
		r.Dep = int32(s.Dep)
	}
	m.recs = append(m.recs, r)
	m.sync("LoadSpec")
	return i
}

func (m *model) branch(pc uint64, taken bool) {
	m.e.Branch(pc, taken)
	m.recs = append(m.recs, Record{Kind: KindBranch, PC: pc, Taken: taken, Dep: NoDep})
	m.sync("Branch")
}

// finish finishes the trace and fails the test unless the emitter's Len
// kept up with the model, a cursor reads back the model's records, with
// BranchHist derived from the branches before each, and Len, Accesses and
// DepReach agree with them.
func (m *model) finish(t testing.TB) *Trace {
	t.Helper()
	if m.lenErr != "" {
		t.Fatal(m.lenErr)
	}
	tr := m.e.Finish()
	var hist uint16
	accesses := 0
	for i := range m.recs {
		m.recs[i].BranchHist = hist
		switch m.recs[i].Kind {
		case KindBranch:
			hist = foldBranch(hist, m.recs[i].Taken)
		case KindLoad, KindStore:
			accesses++
		}
	}
	got := records(tr)
	if len(got) != len(m.recs) || tr.Len() != len(m.recs) || tr.Accesses() != accesses {
		t.Fatalf("read %d records (Len %d, Accesses %d), emitted %d with %d accesses",
			len(got), tr.Len(), tr.Accesses(), len(m.recs), accesses)
	}
	for i := range m.recs {
		if got[i] != m.recs[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], m.recs[i])
		}
	}
	if tr.DepReach() != tr.ComputeStats().DepReach {
		t.Fatalf("DepReach %d, ComputeStats %d", tr.DepReach(), tr.ComputeStats().DepReach)
	}
	return tr
}

// TestDeltaCoding drives the streams' per-op differences: each trace
// must read back as emitted, its streams must take exactly the varint
// lengths of its differences (streamBytes), and the payload and Reg
// streams the byte counts given, which only differences taken per op
// byte, modulo 2^64, reach.
func TestDeltaCoding(t *testing.T) {
	fill := func(m *model, n int) { // n distinct branch ops
		for i := 1; i <= n; i++ {
			m.branch(uint64(i)<<2|1<<20, true)
		}
	}
	for _, tc := range []struct {
		name      string
		build     func(m *model)
		pay, regs int
		whole     int
	}{
		{"wrap", func(m *model) {
			// Every difference wraps modulo 2^64: 2^64−1 is −1 from 0, and
			// 0 is 1 from it, one byte each; 2^63 and back take ten.
			for _, v := range []uint64{math.MaxUint64, 0, math.MaxUint64, 1 << 63, math.MaxUint64} {
				m.load(&MemSpec{PC: 0x10, Addr: memmodel.Addr(v), Value: v, Reg: v, Dep: -1})
			}
		}, 2 * (1 + 1 + 1 + 10 + 10), 1 + 1 + 1 + 10 + 10, 0},
		{"interleaved", func(m *model) {
			// Two ops of one PC, told apart by their size, walk apart in
			// opposite directions: after each op's first access (4 and 5
			// bytes of Addr), the differences take one byte, where
			// differences from the PC's last access would take four.
			for i := 0; i < 100; i++ {
				m.load(&MemSpec{PC: 0x20, Addr: memmodel.Addr(0x1000000 + 8*i), Value: uint64(i), Dep: -1})
				m.load(&MemSpec{PC: 0x20, Addr: memmodel.Addr(0x9000000 - 8*i), Value: uint64(2 * i), Size: 4, Dep: -1})
			}
		}, (4 + 1) + (5 + 1) + 198*2, 0, 0},
		{"late reg", func(m *model) {
			// The first nonzero Reg after 3 chunks of accesses backfills
			// one zero byte for each. Every access takes two payload
			// bytes, the first of each op three.
			n := 3*chunkLen + 5
			for i := 0; i < n; i++ {
				m.load(&MemSpec{PC: 0x30, Addr: 0x40, Dep: -1})
			}
			m.load(&MemSpec{PC: 0x34, Addr: 0x40, Reg: 7, Dep: -1})
			m.load(&MemSpec{PC: 0x30, Addr: 0x40, Dep: -1})
		}, 2*(3*chunkLen+7) + 2, 3*chunkLen + 7, 0},
		{"reg kept whole", func(m *model) {
			// The first nonzero Reg arrives on a load kept whole: it
			// starts no stream. The next one does, backfilling 3 bytes.
			m.load(&MemSpec{PC: 0x40, Addr: 0x80, Dep: -1})
			fill(m, maxEntries-1)
			m.load(&MemSpec{PC: 0x44, Addr: 0x80, Reg: 9, Dep: -1}) // a new op: kept whole
			m.load(&MemSpec{PC: 0x40, Addr: 0x80, Dep: -1})
			m.append(Record{Kind: KindStore, PC: 0x48, Addr: 0xc0, Reg: 3, Size: 8, Dep: NoDep}) // kept whole
			m.load(&MemSpec{PC: 0x40, Addr: 0x80, Dep: -1})
			m.load(&MemSpec{PC: 0x40, Addr: 0x80, Reg: 5, Dep: -1})
			m.load(&MemSpec{PC: 0x40, Addr: 0x80, Reg: 5, Dep: -1})
		}, 2 + 1 + 2*4, 5, 2},
		{"whole between", func(m *model) {
			// Records kept whole between accesses of one op, a load of a
			// new op and a record of an unknown kind, leave the op's last
			// access where it was: its next difference is 8.
			m.load(&MemSpec{PC: 0x50, Addr: 0x1000, Value: 0x2000, Dep: -1})
			fill(m, maxEntries-1)
			m.load(&MemSpec{PC: 0x54, Addr: 0x9000, Value: 0x9000, Dep: -1})
			m.append(Record{Kind: kindCount, PC: 0x50, Addr: 0x9000, Value: 0x9000, Size: 8, Dep: NoDep})
			m.load(&MemSpec{PC: 0x50, Addr: 0x1008, Value: 0x2008, Dep: -1})
		}, 2 + 3 + 1 + 1, 0, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newModel(tc.name)
			tc.build(m)
			tr := m.finish(t)
			_, pay, regs := streamBytes(tr)
			if len(tr.pay) != pay || len(tr.regs) != regs {
				t.Errorf("streams of %d and %d bytes, their differences take %d and %d", len(tr.pay), len(tr.regs), pay, regs)
			}
			if len(tr.pay) != tc.pay || len(tr.regs) != tc.regs {
				t.Errorf("streams of %d and %d bytes, want %d and %d", len(tr.pay), len(tr.regs), tc.pay, tc.regs)
			}
			if _, whole := tr.Footprint(); whole != tc.whole {
				t.Errorf("%d records kept whole, want %d", whole, tc.whole)
			}
		})
	}
}

// TestKeptWholeRecords drives every escape from the compact layout
// through the generator methods and Append alike: a full op table, reached
// with distinct PCs, shapes, compute counts, dependency distances and
// merged compute blocks; an unknown kind; and, which the table holds, an
// Addr, Value or Reg of 2^32 or more and a dependency Validate rejects.
// Records that still fit are interleaved after the escapes. Each
// trace must read back as emitted, give the Validate verdict, checksum and
// DepReach the 8-byte-op layout gave it (the first three and the last also
// the 16-byte-op, 32-byte-payload one), and, where it is valid, survive
// Write→Read.
func TestKeptWholeRecords(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(m *model)
		whole int
		sum   uint64
		reach int
		err   string
	}{
		{"pcs", func(m *model) {
			dep := -1
			for i := 1; i <= 1<<16+6; i++ {
				pc := uint64(i) << 2
				switch i % 3 {
				case 0:
					dep = m.load(&MemSpec{PC: pc, Addr: memmodel.Addr(i) << 6, Value: uint64(i), Dep: dep})
				case 1:
					m.branch(pc, i%4 == 1)
				case 2:
					m.append(Record{Kind: KindStore, PC: pc, Addr: memmodel.Addr(i) << 6, Size: 4, Dep: NoDep})
				}
				if i > 1<<16-8 { // around the 8-byte ops' PC table filling up
					m.load(&MemSpec{PC: 4, Addr: 0x40, Reg: uint64(i), Dep: dep})
					m.compute(2)
				}
			}
		}, 65316, 0xd591aa461064119c, 9, ""},
		{"shapes", func(m *model) {
			dep := -1
			for i := 0; i < 1<<8+8; i++ {
				h := SWHints{Valid: true, TypeID: uint16(i), LinkOffset: 8, RefForm: RefArrow}
				dep = m.load(&MemSpec{PC: 0x100, Addr: memmodel.Addr(0x1000 + 64*i), Dep: dep, Hints: h})
				m.load(&MemSpec{PC: 0x104, Addr: 0x40, Dep: dep})
			}
			m.append(Record{Kind: KindCompute, Count: 3, Taken: true})
			m.compute(2) // merges into the compute record kept whole
			m.branch(0x108, true)
			m.branch(0x108, false)
			m.append(Record{Kind: KindStore, PC: 0x10c, Addr: 0x80, Size: 2, Dep: int32(dep)})
			m.load(&MemSpec{PC: 0x104, Addr: 0x40, Dep: dep})
		}, 16, 0xf6f9ed2f1884c265, 6, ""},
		{"wide", func(m *model) {
			vals := []uint64{0, 1<<32 - 1, 1 << 32, 1 << 63, math.MaxUint64}
			dep := -1
			for _, a := range vals {
				for _, v := range vals {
					for _, r := range vals {
						dep = m.load(&MemSpec{PC: 0x200, Addr: memmodel.Addr(a), Value: v, Reg: r, Dep: dep})
						m.append(Record{Kind: KindStore, PC: 0x204, Addr: memmodel.Addr(a ^ 0x40), Value: r, Reg: v, Size: 8, Dep: NoDep})
						m.compute(1)
					}
				}
			}
		}, 0, 0xf6bcd302d3c799ca, 3, ""},
		{"counts", func(m *model) {
			for n := 1; n <= maxEntries+6; n++ {
				m.compute(n)
				m.branch(0x10, true)
				if n > maxEntries-8 { // around the table filling up, ops it holds
					m.compute(1)
					m.load(&MemSpec{PC: 0x14, Addr: memmodel.Addr(n) << 6, Dep: -1})
				}
			}
		}, 8, 0xf5ed78b774452062, 0, ""},
		{"distances", func(m *model) {
			first := m.load(&MemSpec{PC: 0x20, Addr: 0x1000, Dep: -1})
			for i := 1; i <= maxEntries+6; i++ {
				m.load(&MemSpec{PC: 0x24, Addr: memmodel.Addr(0x1000 + 64*i), Value: uint64(i), Dep: first})
				if i > maxEntries-8 { // around the table filling up, an op it holds
					m.load(&MemSpec{PC: 0x24, Addr: 0x40, Dep: len(m.recs) - 1})
				}
			}
			// Dependencies Validate rejects, as distances forward, onto
			// the record itself and before the trace, one of them beyond
			// int32.
			m.append(Record{Kind: KindLoad, PC: 0x28, Size: 8, Dep: 1 << 30})
			m.append(Record{Kind: KindLoad, PC: 0x28, Size: 8, Dep: int32(len(m.recs))})
			m.append(Record{Kind: KindStore, PC: 0x28, Size: 8, Dep: -7})
			m.append(Record{Kind: KindStore, PC: 0x28, Size: 8, Dep: math.MinInt32})
		}, 11, 0xac3e04c933097c78, 273, `trace "distances": record 275 dep 1073741824 out of range`},
		{"merge", func(m *model) {
			for i := 1; i <= maxEntries-2; i++ {
				m.branch(uint64(i)<<2, true)
			}
			// A compute block is one op, its merged count: the parts'
			// counts never take an entry.
			m.compute(1000)
			m.compute(1) // the table's last entry but one
			m.branch(4, true)
			m.compute(1000)
			m.compute(2) // its last entry
			m.branch(4, true)
			m.compute(1000)
			m.compute(3) // kept whole
			m.branch(4, true)
			m.compute(1001) // fits
			// With a PC and Size, which Append drops.
			m.append(Record{Kind: KindCompute, Count: 1, Taken: true, PC: 0x99, Size: 3})
			m.compute(1001) // merges into the appended record, kept whole
			m.append(Record{Kind: KindCompute, Count: 1})
			m.compute(1000) // merges into the appended record, which fits
			m.branch(4, true)
			m.compute(999) // Finish emits the last block, kept whole
		}, 3, 0xd55aa9fcddd617bb, 0, ""},
		{"producers", func(m *model) {
			for i := 1; i <= maxEntries; i++ {
				m.branch(uint64(i)<<2, false)
			}
			ld := m.load(&MemSpec{PC: 0x1000, Addr: 0x40, Dep: -1})
			m.load(&MemSpec{PC: 0x1004, Addr: 0x80, Dep: ld}) // on a load kept whole
			st := len(m.recs)
			m.append(Record{Kind: KindStore, PC: 0x1008, Addr: 0xc0, Size: 8, Dep: NoDep})
			m.load(&MemSpec{PC: 0x100c, Addr: 0x100, Dep: st}) // on a store kept whole
		}, 4, 0x6c590b2cd07ba57e, 1, `trace "producers": record 257 depends on non-load 256`},
		{"kind", func(m *model) {
			m.load(&MemSpec{PC: 0x300, Addr: 0x1000, Dep: -1})
			m.append(Record{Kind: Kind(99), PC: 0x304, Addr: 0x2000, Value: 5, Reg: 6, Count: 7, Size: 3, Taken: true, Dep: 0,
				Hints: SWHints{Valid: true, TypeID: 1}})
			m.branch(0x308, true)
			m.append(Record{Kind: kindCount, Dep: NoDep})
			m.load(&MemSpec{PC: 0x300, Addr: 0x1040, Reg: 1, Dep: 0})
		}, 2, 0x6ad415836ce3041a, 4, `trace "kind": record 1 has unknown kind 99`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newModel(tc.name)
			tc.build(m)
			tr := m.finish(t)
			if _, whole := tr.Footprint(); whole != tc.whole {
				t.Errorf("%d records kept whole, want %d", whole, tc.whole)
			}
			if got := tr.checksum(); got != tc.sum {
				t.Errorf("checksum %#x, want %#x", got, tc.sum)
			}
			if got := tr.DepReach(); got != tc.reach {
				t.Errorf("DepReach %d, want %d", got, tc.reach)
			}
			err := tr.Validate()
			if got := fmt.Sprint(err); err == nil && tc.err != "" || err != nil && got != tc.err {
				t.Errorf("Validate: %v, want %q", err, tc.err)
			}
			if tc.err != "" {
				return // not a trace the codec need carry
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
			if back.checksum() != tr.checksum() || back.DepReach() != tr.DepReach() {
				t.Errorf("read back with checksum %#x, DepReach %d", back.checksum(), back.DepReach())
			}
		})
	}
}
