package trace

import "testing"

func checksumTrace() *Trace {
	e := NewEmitter("sum")
	e.Compute(3)
	e.Branch(0x10, true)
	e.LoadSpec(MemSpec{PC: 0x20, Addr: 0x1000, Dep: -1,
		Hints: SWHints{Valid: true, TypeID: 7, LinkOffset: 16, RefForm: RefArrow}})
	e.Store(0x30, 0x2000)
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

	// Stray writes into the storage: record 2 is the load (payload 0),
	// record 3 the store (payload 1).
	mutations := []func(*Trace){
		func(t *Trace) { t.Name = "other" },
		func(t *Trace) { t.accs[0].addr++ },
		func(t *Trace) { t.accs[0].value ^= 1 },
		func(t *Trace) { t.accs[1].reg++ },
		func(t *Trace) { t.ops[1].taken = false },
		func(t *Trace) { t.ops[3].pc++ },
		func(t *Trace) { t.ops[3].size = 4 },
		func(t *Trace) { t.ops[3].arg = 2 },
		func(t *Trace) { t.accs[0].hints.LinkOffset = 24 },
		func(t *Trace) { t.accs[0].hints.Valid = false },
		func(t *Trace) { t.ops[0].arg++ },
	}
	for i, mut := range mutations {
		m := checksumTrace()
		mut(m)
		if m.Checksum() == orig {
			t.Errorf("mutation %d not reflected in checksum", i)
		}
	}
}
