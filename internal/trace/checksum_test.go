package trace

import "testing"

func checksumTrace() *Trace {
	e := NewEmitter("sum")
	e.Compute(3)
	e.Branch(0x10, true)
	e.LoadSpec(MemSpec{PC: 0x20, Addr: 0x1000, Reg: 5, Dep: -1,
		Hints: SWHints{Valid: true, TypeID: 7, LinkOffset: 16, RefForm: RefArrow}})
	e.Store(0x30, 0x2000)
	e.LoadSpec(MemSpec{PC: 0x40, Addr: 1 << 40, Dep: 2}) // kept whole
	e.LoadDep(0x50, 0x3000, 4)
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
	// branch, 2 the load (payload 0), 3 the store (payload 1), 4 the load
	// kept whole and 5 the load that depends on it (payload 3). Each table
	// field is written through the op of a record that reads it.
	mutations := []func(*Trace){
		func(t *Trace) { t.Name = "other" },
		func(t *Trace) { t.accs[0].addr++ },
		func(t *Trace) { t.accs[0].value ^= 1 },
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
