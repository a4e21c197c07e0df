package trace

import (
	"bytes"
	"testing"
)

// checksum returns a deterministic FNV-1a digest of the trace's name and
// every record field, as a cursor decodes them. It does not depend on how
// the store lays the records out, so the store tests pin it across layouts
// and compare it between a trace and the same records rebuilt through
// Append.
func (t *Trace) checksum() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	for i := 0; i < len(t.Name); i++ {
		h ^= uint64(t.Name[i])
		h *= prime64
	}
	c := t.Cursor()
	for c.Next() {
		r := c.Record()
		mix(r.PC)
		mix(uint64(r.Addr))
		mix(r.Value)
		mix(r.Reg)
		mix(uint64(uint32(r.Dep)))
		mix(uint64(r.Count))
		var flags uint64
		flags = uint64(r.Kind)<<8 | uint64(r.Size)
		if r.Taken {
			flags |= 1 << 16
		}
		if r.Hints.Valid {
			flags |= 1 << 17
		}
		flags |= uint64(r.Hints.TypeID) << 18
		flags |= uint64(r.Hints.LinkOffset) << 34
		flags |= uint64(r.Hints.RefForm) << 50
		mix(flags)
	}
	return h
}

// checksumTrace builds a small trace whose op table is full, so its last
// record, a store, is kept whole; Write encodes every record of it.
func checksumTrace() *Trace {
	e := NewEmitter("sum")
	e.Compute(3)
	e.Branch(0x10, true)
	e.LoadSpec(&MemSpec{PC: 0x20, Addr: 0x1000, Reg: 5, Dep: -1,
		Hints: SWHints{Valid: true, TypeID: 7, LinkOffset: 16, RefForm: RefArrow}})
	e.Store(0x30, 0x2000)
	e.LoadSpec(&MemSpec{PC: 0x50, Addr: 0x3000, Dep: 2})
	for pc := uint64(0x100); len(e.table) < maxEntries; pc += 4 {
		e.Branch(pc, false)
	}
	e.StoreSpec(&MemSpec{PC: 0x60, Addr: 0x4000, Dep: 2})
	return e.Finish()
}

// written returns the bytes Write writes for tr.
func written(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestChecksumStable(t *testing.T) {
	a, b := checksumTrace(), checksumTrace()
	if a.checksum() != b.checksum() || !bytes.Equal(written(t, a), written(t, b)) {
		t.Fatal("identical traces produced different checksums or bytes")
	}
	if a.checksum() != a.checksum() || !bytes.Equal(written(t, a), written(t, a)) {
		t.Fatal("checksum or Write not idempotent")
	}
}

// TestChecksumDetectsMutation checks what the experiment engine's trace
// cache hashes to catch a stray write into a shared trace: the bytes Write
// writes. Every write into the name or the store must change them.
func TestChecksumDetectsMutation(t *testing.T) {
	tr := checksumTrace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, whole := tr.Footprint(); whole != 1 {
		t.Fatalf("%d records kept whole, want 1", whole)
	}
	orig := written(t, tr)

	// Stray writes into the storage: record 0 is the compute block, 1 the
	// branch, 2 the load, 3 the store, 4 a load that depends on record 2,
	// then branches until the table is full, and last a store on record 2,
	// kept whole. The payload stream holds the Addr and Value differences
	// of records 2 (0x80 0x40, 0x00), 3 (0x80 0x80 0x01, 0x00) and 4 (0x80
	// 0xc0 0x01, 0x00), the Reg stream those of records 2 (0x0a), 3 and 4
	// (0x00 each); each write keeps every varint's length. Each table
	// field is written through the op of a record that reads it.
	mutations := []func(*Trace){
		func(t *Trace) { t.Name = "other" },
		func(t *Trace) { t.pay[1]++ },
		func(t *Trace) { t.pay[2] ^= 2 },
		func(t *Trace) { t.pay[len(t.pay)-2]++ },
		func(t *Trace) { t.regs[0]++ },
		func(t *Trace) { t.regs[1]++ },
		func(t *Trace) { t.ops[3] = t.ops[2] },
		func(t *Trace) { t.table[t.ops[3]].pc++ },
		func(t *Trace) { t.table[t.ops[3]].kind = KindLoad },
		func(t *Trace) { t.table[t.ops[3]].size = 4 },
		func(t *Trace) { t.table[t.ops[1]].taken = false },
		func(t *Trace) { t.table[t.ops[2]].hints.LinkOffset = 24 },
		func(t *Trace) { t.table[t.ops[2]].hints.Valid = false },
		func(t *Trace) { t.table[t.ops[0]].count++ },
		func(t *Trace) { t.table[t.ops[4]].dist++ },
		func(t *Trace) { t.table[t.ops[4]].noDep = true },
		func(t *Trace) { t.table[t.ops[3]].noDep = false },
		func(t *Trace) { t.table[len(t.table)-1].pc++ },
		func(t *Trace) { t.whole[0].Addr++ },
		func(t *Trace) { t.whole[0].Value++ },
		func(t *Trace) { t.whole[0].Dep = NoDep },
	}
	for i, mut := range mutations {
		m := checksumTrace()
		mut(m)
		if bytes.Equal(written(t, m), orig) {
			t.Errorf("mutation %d leaves the bytes Write writes unchanged", i)
		}
	}
}
