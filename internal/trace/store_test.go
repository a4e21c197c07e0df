package trace

import (
	"bytes"
	"fmt"
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

// TestStorageFootprint pins the layout's byte budget: one op byte per
// record, an 8-byte payload per load or store, a table of exactly the
// trace's distinct ops, every array exactly sized, and no Reg column
// unless some access has a nonzero Reg.
func TestStorageFootprint(t *testing.T) {
	if s := unsafe.Sizeof(payload{}); s != 8 {
		t.Errorf("payload is %d bytes, want 8", s)
	}
	tr := benchTrace(3*chunkLen + 100) // several chunks of each
	if len(tr.ops) <= 2*chunkLen || len(tr.accs) <= chunkLen {
		t.Fatalf("trace of %d ops, %d payloads spans too few chunks", len(tr.ops), len(tr.accs))
	}
	if tr.regs != nil {
		t.Errorf("every Reg is zero, yet the trace has a Reg column of %d", len(tr.regs))
	}
	// A distinct op is a record less Addr, Value and Reg, with its Dep as
	// a distance back or none.
	type distinct struct {
		r     Record
		dist  int64
		noDep bool
	}
	ops := map[distinct]bool{}
	c := tr.Cursor()
	for c.Next() {
		d := distinct{r: *c.Record(), noDep: c.Record().Dep == NoDep}
		if !d.noDep {
			d.dist = int64(c.Index()) - int64(d.r.Dep)
		}
		d.r.Addr, d.r.Value, d.r.Reg, d.r.Dep, d.r.BranchHist = 0, 0, 0, 0, 0
		ops[d] = true
	}
	if len(tr.table) != len(ops) {
		t.Errorf("table of %d entries for %d distinct ops", len(tr.table), len(ops))
	}
	n, whole := tr.Footprint()
	if want := 1*len(tr.ops) + 8*len(tr.accs) + int(unsafe.Sizeof(entry{}))*len(ops); n != want || whole != 0 {
		t.Errorf("Footprint %d bytes, %d whole; want %d bytes, 0 whole", n, whole, want)
	}
	// The decoder builds through Append, and must reach the same layout.
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
		e.LoadSpec(MemSpec{PC: 0x10, Addr: memmodel.Addr(64 * i), Reg: uint64(i / chunkLen), Dep: -1})
		e.Compute(1)
	}
	e.Store(0x20, 0x40) // the column covers the accesses after the last nonzero Reg
	tr = e.Finish()
	if len(tr.regs) != len(tr.accs) {
		t.Fatalf("Reg column of %d for %d accesses", len(tr.regs), len(tr.accs))
	}
	for name, lc := range map[string][2]int{
		"ops": {len(tr.ops), cap(tr.ops)}, "payloads": {len(tr.accs), cap(tr.accs)},
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

// append applies Append's drops.
func (m *model) append(r Record) {
	m.e.Append(r)
	r.BranchHist = 0
	if r.Kind == KindCompute {
		r.Dep = NoDep
	} else {
		r.Count = 0
	}
	if !r.IsMem() {
		r.Addr, r.Value, r.Reg, r.Hints = 0, 0, 0, SWHints{}
	}
	m.recs = append(m.recs, r)
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

// load defaults the size to 8 and drops a Dep that is not an earlier
// record.
func (m *model) load(s MemSpec) int {
	i := m.e.LoadSpec(s)
	r := Record{Kind: KindLoad, PC: s.PC, Addr: s.Addr, Size: s.Size, Value: s.Value, Reg: s.Reg, Dep: NoDep, Hints: s.Hints}
	if r.Size == 0 {
		r.Size = 8
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

// TestKeptWholeRecords drives every escape from the compact layout
// through the generator methods and Append alike: a full op table, reached
// with distinct PCs, shapes, compute counts, dependency distances and
// merged compute blocks; an Addr, Value or Reg of 2^32 or more; a
// dependency Validate rejects; an unknown kind. Records that still fit
// are interleaved after the escapes. Each trace must read back as
// emitted, give the Validate verdict, Checksum and DepReach the 8-byte-op
// layout gave it (the first three and the last also the 16-byte-op,
// 32-byte-payload one), and, where it is valid, survive Write→Read.
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
					dep = m.load(MemSpec{PC: pc, Addr: memmodel.Addr(i) << 6, Value: uint64(i), Dep: dep})
				case 1:
					m.branch(pc, i%4 == 1)
				case 2:
					m.append(Record{Kind: KindStore, PC: pc, Addr: memmodel.Addr(i) << 6, Size: 4, Dep: NoDep})
				}
				if i > 1<<16-8 { // around the 8-byte ops' PC table filling up
					m.load(MemSpec{PC: 4, Addr: 0x40, Reg: uint64(i), Dep: dep})
					m.compute(2)
				}
			}
		}, 65316, 0xd591aa461064119c, 9, ""},
		{"shapes", func(m *model) {
			dep := -1
			for i := 0; i < 1<<8+8; i++ {
				h := SWHints{Valid: true, TypeID: uint16(i), LinkOffset: 8, RefForm: RefArrow}
				dep = m.load(MemSpec{PC: 0x100, Addr: memmodel.Addr(0x1000 + 64*i), Dep: dep, Hints: h})
				m.load(MemSpec{PC: 0x104, Addr: 0x40, Dep: dep})
			}
			m.append(Record{Kind: KindCompute, Count: 3, Taken: true})
			m.compute(2) // merges into the compute record kept whole
			m.branch(0x108, true)
			m.branch(0x108, false)
			m.append(Record{Kind: KindStore, PC: 0x10c, Addr: 0x80, Size: 2, Dep: int32(dep)})
			m.load(MemSpec{PC: 0x104, Addr: 0x40, Dep: dep})
		}, 16, 0xf6f9ed2f1884c265, 6, ""},
		{"wide", func(m *model) {
			vals := []uint64{0, 1<<32 - 1, 1 << 32, 1 << 63, math.MaxUint64}
			dep := -1
			for _, a := range vals {
				for _, v := range vals {
					for _, r := range vals {
						dep = m.load(MemSpec{PC: 0x200, Addr: memmodel.Addr(a), Value: v, Reg: r, Dep: dep})
						m.append(Record{Kind: KindStore, PC: 0x204, Addr: memmodel.Addr(a ^ 0x40), Value: r, Reg: v, Size: 8, Dep: NoDep})
						m.compute(1)
					}
				}
			}
		}, 2 * (125 - 8), 0xf6bcd302d3c799ca, 3, ""},
		{"counts", func(m *model) {
			for n := 1; n <= maxEntries+6; n++ {
				m.compute(n)
				m.branch(0x10, true)
				if n > maxEntries-8 { // around the table filling up, ops it holds
					m.compute(1)
					m.load(MemSpec{PC: 0x14, Addr: memmodel.Addr(n) << 6, Dep: -1})
				}
			}
		}, 8, 0xf5ed78b774452062, 0, ""},
		{"distances", func(m *model) {
			first := m.load(MemSpec{PC: 0x20, Addr: 0x1000, Dep: -1})
			for i := 1; i <= maxEntries+6; i++ {
				m.load(MemSpec{PC: 0x24, Addr: memmodel.Addr(0x1000 + 64*i), Value: uint64(i), Dep: first})
				if i > maxEntries-8 { // around the table filling up, an op it holds
					m.load(MemSpec{PC: 0x24, Addr: 0x40, Dep: len(m.recs) - 1})
				}
			}
			// Dependencies Validate rejects, as distances forward, onto
			// the record itself and before the trace, one of them beyond
			// int32.
			m.append(Record{Kind: KindLoad, PC: 0x28, Size: 8, Dep: 1 << 30})
			m.append(Record{Kind: KindLoad, PC: 0x28, Size: 8, Dep: int32(len(m.recs))})
			m.append(Record{Kind: KindStore, PC: 0x28, Size: 8, Dep: -7})
			m.append(Record{Kind: KindBranch, PC: 0x28, Dep: math.MinInt32})
		}, 11, 0x79ba480b2d62fe4b, 273, `trace "distances": record 275 dep 1073741824 out of range`},
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
			m.append(Record{Kind: KindCompute, Count: 1, Taken: true})
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
			ld := m.load(MemSpec{PC: 0x1000, Addr: 0x40, Dep: -1})
			m.load(MemSpec{PC: 0x1004, Addr: 0x80, Dep: ld}) // on a load kept whole
			st := len(m.recs)
			m.append(Record{Kind: KindStore, PC: 0x1008, Addr: 0xc0, Size: 8, Dep: NoDep})
			m.load(MemSpec{PC: 0x100c, Addr: 0x100, Dep: st}) // on a store kept whole
		}, 4, 0x6c590b2cd07ba57e, 1, `trace "producers": record 257 depends on non-load 256`},
		{"kind", func(m *model) {
			m.load(MemSpec{PC: 0x300, Addr: 0x1000, Dep: -1})
			m.append(Record{Kind: Kind(99), PC: 0x304, Addr: 0x2000, Value: 5, Reg: 6, Count: 7, Size: 3, Taken: true, Dep: 0,
				Hints: SWHints{Valid: true, TypeID: 1}})
			m.branch(0x308, true)
			m.append(Record{Kind: kindCount, Dep: NoDep})
			m.load(MemSpec{PC: 0x300, Addr: 0x1040, Reg: 1, Dep: 0})
		}, 2, 0x6ad415836ce3041a, 4, `trace "kind": record 1 has unknown kind 99`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newModel(tc.name)
			tc.build(m)
			tr := m.finish(t)
			if _, whole := tr.Footprint(); whole != tc.whole {
				t.Errorf("%d records kept whole, want %d", whole, tc.whole)
			}
			if got := tr.Checksum(); got != tc.sum {
				t.Errorf("Checksum %#x, want %#x", got, tc.sum)
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
			if back.Checksum() != tr.Checksum() || back.DepReach() != tr.DepReach() {
				t.Errorf("read back with checksum %#x, DepReach %d", back.Checksum(), back.DepReach())
			}
		})
	}
}
