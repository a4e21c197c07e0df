package trace

import "testing"

func checksumTrace() *Trace {
	e := NewEmitter("sum")
	e.Compute(3)
	e.Branch(0x10, true)
	e.LoadSpec(MemSpec{PC: 0x20, Addr: 0x1000, Reg: 5, Dep: -1,
		Hints: SWHints{Valid: true, TypeID: 7, LinkOffset: 16, RefForm: RefArrow}})
	e.Store(0x30, 0x2000)
	e.Append(Record{Kind: kindCount, PC: 0x40, Size: 8, Dep: 2}) // an unknown kind, kept whole
	e.LoadSpec(MemSpec{PC: 0x50, Addr: 0x3000, Dep: 2})
	return e.Finish()
}

func TestChecksumStable(t *testing.T) {
	a, b := checksumTrace(), checksumTrace()
	if a.Checksum() != b.Checksum() {
		t.Fatal("identical traces produced different checksums")
	}
	if a.Checksum() != a.Checksum() {
		t.Fatal("checksum not idempotent")
	}
}

func TestChecksumDetectsMutation(t *testing.T) {
	tr := checksumTrace()
	orig := tr.Checksum()

	// Stray writes into the storage: record 0 is the compute block, 1 the
	// branch, 2 the load, 3 the store, 4 the record kept whole and 5 a
	// load that depends on record 2. The payload stream holds the Addr
	// and Value differences of records 2 (0x80 0x40, 0x00), 3 (0x80 0x80
	// 0x01, 0x00) and 5 (0x80 0xc0 0x01, 0x00), the Reg stream those of
	// records 2 (0x0a), 3 and 5 (0x00 each); each write keeps every
	// varint's length. Each table field is written through the op of a
	// record that reads it.
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
		func(t *Trace) { t.table[t.ops[5]].dist++ },
		func(t *Trace) { t.table[t.ops[5]].noDep = true },
		func(t *Trace) { t.table[t.ops[3]].noDep = false },
		func(t *Trace) { t.whole[0].Addr++ },
		func(t *Trace) { t.whole[0].Dep = NoDep },
	}
	for i, mut := range mutations {
		m := checksumTrace()
		mut(m)
		if m.Checksum() == orig {
			t.Errorf("mutation %d not reflected in checksum", i)
		}
	}
}
