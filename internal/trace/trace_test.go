package trace

import (
	"bytes"
	"testing"

	"semloc/internal/memmodel"
)

func sampleTrace() *Trace {
	e := NewEmitter("sample")
	e.Compute(10)
	i := e.LoadSpec(MemSpec{PC: 0x400, Addr: 0x10000, Value: 0x20000, Reg: 7, Dep: -1,
		Hints: SWHints{Valid: true, TypeID: 3, LinkOffset: 8, RefForm: RefArrow}})
	e.Branch(0x408, true)
	e.LoadDep(0x410, 0x20000, i)
	e.EndWarmup()
	e.Store(0x418, 0x30040)
	e.Compute(5)
	return e.Finish()
}

func TestEmitterBasics(t *testing.T) {
	tr := sampleTrace()
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	s := tr.ComputeStats()
	if s.Loads != 2 || s.Stores != 1 || s.Branches != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.Instructions != 10+1+1+1+1+5 {
		t.Errorf("Instructions = %d, want 19", s.Instructions)
	}
	if s.Hinted != 1 {
		t.Errorf("Hinted = %d, want 1", s.Hinted)
	}
	if s.Dependent != 1 {
		t.Errorf("Dependent = %d, want 1", s.Dependent)
	}
	if s.WarmupIndex != 4 {
		t.Errorf("WarmupIndex = %d, want 4", s.WarmupIndex)
	}
}

func TestEmitterComputeMerging(t *testing.T) {
	e := NewEmitter("merge")
	e.Compute(3)
	e.Compute(4)
	e.Compute(0)  // ignored
	e.Compute(-1) // ignored
	recs := records(e.Finish())
	if len(recs) != 1 {
		t.Fatalf("expected 1 merged record, got %d", len(recs))
	}
	if recs[0].Count != 7 {
		t.Errorf("merged count = %d, want 7", recs[0].Count)
	}
}

func TestEmitterDefaultSize(t *testing.T) {
	e := NewEmitter("size")
	e.Load(0x1, 0x2)
	if got := records(e.Finish())[0].Size; got != 8 {
		t.Errorf("default size = %d, want 8", got)
	}
}

func TestEmitterInvalidDepIgnored(t *testing.T) {
	e := NewEmitter("dep")
	e.LoadSpec(MemSpec{PC: 1, Addr: 2, Dep: 57}) // out of range forward dep
	if got := records(e.Finish())[0].Dep; got != NoDep {
		t.Errorf("forward dep should be dropped, got %d", got)
	}
}

func TestValidateCatchesBadTraces(t *testing.T) {
	bad := []*Trace{
		fromRecords("kind", Record{Kind: Kind(99)}),
		fromRecords("compute", Record{Kind: KindCompute, Count: 0}),
		fromRecords("dep", Record{Kind: KindLoad, Size: 8, Dep: 5}),
		fromRecords("size", Record{Kind: KindStore, Size: 0, Dep: NoDep}),
		fromRecords("depkind",
			Record{Kind: KindBranch},
			Record{Kind: KindLoad, Size: 8, Dep: 0},
		),
	}
	for _, tr := range bad {
		if err := tr.Validate(); err == nil {
			t.Errorf("trace %q: expected validation error", tr.Name)
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	orig := sampleTrace()
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Name != orig.Name {
		t.Errorf("name %q != %q", got.Name, orig.Name)
	}
	sameRecords(t, got, orig)
}

func TestCodecRoundTripLarge(t *testing.T) {
	e := NewEmitter("large")
	rng := memmodel.NewRNG(99)
	lastLoad := -1
	for i := 0; i < 5000; i++ {
		switch rng.Intn(5) {
		case 0:
			e.Compute(1 + rng.Intn(20))
		case 1:
			e.Branch(uint64(0x1000+rng.Intn(64)*4), rng.Intn(2) == 0)
		case 2:
			dep := -1
			if lastLoad >= 0 && rng.Intn(2) == 0 {
				dep = lastLoad
			}
			var h SWHints
			if rng.Intn(2) == 0 {
				h = SWHints{Valid: true, TypeID: uint16(rng.Intn(8)), LinkOffset: uint16(rng.Intn(64)), RefForm: RefForm(rng.Intn(5))}
			}
			lastLoad = e.LoadSpec(MemSpec{
				PC:    uint64(0x2000 + rng.Intn(32)*4),
				Addr:  memmodel.Addr(rng.Uint64() % (1 << 40)),
				Value: rng.Uint64() % 1000,
				Reg:   rng.Uint64() % 16,
				Dep:   dep,
				Hints: h,
			})
		case 3:
			e.Store(uint64(0x3000+rng.Intn(16)*4), memmodel.Addr(rng.Uint64()%(1<<40)))
		case 4:
			if rng.Intn(100) == 0 {
				e.EndWarmup()
			} else {
				e.Compute(2)
			}
		}
	}
	orig := e.Finish()
	if err := orig.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	sameRecords(t, got, orig)
}

func TestCodecCorruptInputs(t *testing.T) {
	orig := sampleTrace()
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatalf("Write: %v", err)
	}
	data := buf.Bytes()

	// Truncations at every prefix length must error, never panic.
	for cut := 0; cut < len(data); cut++ {
		if _, err := Read(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncation at %d: expected error", cut)
		}
	}
	// Bad magic.
	bad := append([]byte("XXXX"), data[4:]...)
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic: expected error")
	}
	// Bad version.
	bad = append([]byte(nil), data...)
	bad[4] = 0x7f
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("bad version: expected error")
	}
}

func TestCodecUnknownKindFails(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, fromRecords("bad", Record{Kind: Kind(77)})); err == nil {
		t.Error("expected encode error for unknown kind")
	}
}

func TestKindAndRefFormStrings(t *testing.T) {
	if KindLoad.String() != "load" || KindStore.String() != "store" ||
		KindCompute.String() != "compute" || KindBranch.String() != "branch" ||
		KindWarmupEnd.String() != "warmup-end" {
		t.Error("kind strings wrong")
	}
	if Kind(200).String() != "kind(200)" {
		t.Error("unknown kind string wrong")
	}
	if RefArrow.String() != "arrow" || RefIndex.String() != "index" ||
		RefNone.String() != "none" || RefDeref.String() != "deref" || RefDot.String() != "dot" {
		t.Error("refform strings wrong")
	}
	if RefForm(200).String() != "ref(200)" {
		t.Error("unknown refform string wrong")
	}
}
