package trace

import "semloc/internal/memmodel"

// Emitter is the instrumentation layer workload generators write through.
// It plays the role of the paper's modified LLVM pass: every memory access
// a workload emits can be annotated with the software attributes the pass
// would have injected, and with the dataflow information (producer load,
// register operand, loaded value) the hardware would expose.
//
// Emitter methods return the absolute index of the record just appended so
// generators can express pointer-chasing dependencies.
//
// Records accumulate in fixed-size chunks, which growth never copies, and
// Finish assembles them once into the trace's exact-length arrays.
type Emitter struct {
	name string
	ops  chunks[op]
	accs chunks[payload]
	// regs is empty until the first nonzero Reg, then parallel to accs.
	regs chunks[uint32]
	// pcs and shapes intern the PCs and packed shapes (shapeKey) ops
	// index; both start with 0, so a zero op means PC 0 and the zero
	// shape.
	pcs, shapes interner
	whole       []Record
	// reach is the dependency reach of the records so far (Trace.DepReach).
	reach int
}

// NewEmitter creates an emitter for a workload with the given name.
func NewEmitter(name string) *Emitter {
	return &Emitter{name: name, pcs: newInterner(escPC), shapes: newInterner(1 << 8)}
}

// Len returns the number of records emitted so far.
func (e *Emitter) Len() int { return e.ops.len() }

// Compute emits n back-to-back non-memory instructions (folded into one
// record). n <= 0 is ignored.
func (e *Emitter) Compute(n int) {
	if n <= 0 {
		return
	}
	// Merge adjacent compute blocks to keep traces compact.
	if last := e.ops.last(); last != nil && last.kind == KindCompute {
		last.arg += uint32(n)
		if last.pc == escPC {
			e.whole[len(e.whole)-1].Count = last.arg
		}
		return
	}
	e.ops.push(op{kind: KindCompute, arg: uint32(n)})
}

// Append emits r. Every kind keeps PC, Size and Taken, and every kind but
// compute keeps Dep; a compute record keeps Count and reads back with Dep
// NoDep. Only loads and stores keep Addr, Value, Reg and Hints. The
// fields a kind does not keep read back as zero, and BranchHist is
// derived by the cursor. Append checks nothing; Validate does. The
// decoder builds traces through it.
func (e *Emitter) Append(r Record) {
	r.BranchHist = 0
	o := op{arg: uint32(r.Dep), kind: r.Kind}
	if r.Kind == KindCompute {
		o.arg, r.Dep = r.Count, NoDep
	} else {
		r.Count = 0
	}
	if !r.IsMem() {
		r.Addr, r.Value, r.Reg, r.Hints = 0, 0, 0, SWHints{}
	} else if i := e.Len(); r.Dep >= 0 && int(r.Dep) < i {
		e.reach = max(e.reach, i-int(r.Dep))
	}
	if !e.fit(&o, r.PC, shapeKey(r.Size, r.Taken, r.Hints)) || (uint64(r.Addr)|r.Value|r.Reg)>>32 != 0 {
		e.keepWhole(o, r)
		return
	}
	e.ops.push(o)
	if r.IsMem() {
		e.accs.push(payload{addr: uint32(r.Addr), value: uint32(r.Value)})
		e.pushReg(uint32(r.Reg))
	}
}

// fit sets o's PC and shape indices, interning pc and the shape key, and
// reports whether both fit their tables.
func (e *Emitter) fit(o *op, pc, shape uint64) bool {
	p, okPC := e.pcs.index(pc)
	s, okShape := e.shapes.index(shape)
	o.pc, o.shape = p, uint8(s)
	return okPC && okShape
}

// keepWhole emits r, which does not fit an op and a payload, into the
// side list. A load or store still takes a payload slot, so payload
// indices stay access indices.
func (e *Emitter) keepWhole(o op, r Record) {
	o.pc, o.shape = escPC, 0
	e.ops.push(o)
	e.whole = append(e.whole, r)
	if r.IsMem() {
		e.accs.push(payload{})
		e.pushReg(0)
	}
}

// pushReg records the Reg of the access whose payload was just pushed.
func (e *Emitter) pushReg(reg uint32) {
	if reg == 0 && e.regs.len() == 0 {
		return
	}
	for e.regs.len() < e.accs.len()-1 { // the first nonzero Reg backfills
		e.regs.push(0)
	}
	e.regs.push(reg)
}

// MemSpec fully describes an annotated memory access for LoadSpec/StoreSpec.
type MemSpec struct {
	PC    uint64
	Addr  memmodel.Addr
	Size  uint8  // defaults to 8
	Value uint64 // loaded/stored value (e.g. the pointer fetched)
	Reg   uint64 // register-operand context (e.g. search key)
	Dep   int    // absolute index of producer load, or <0 for none
	Hints SWHints
}

// LoadSpec emits a fully annotated load and returns its record index.
func (e *Emitter) LoadSpec(s MemSpec) int {
	return e.mem(KindLoad, s)
}

// StoreSpec emits a fully annotated store and returns its record index.
func (e *Emitter) StoreSpec(s MemSpec) int {
	return e.mem(KindStore, s)
}

// Load emits a plain 8-byte load with no dependency or hints.
func (e *Emitter) Load(pc uint64, addr memmodel.Addr) int {
	return e.LoadSpec(MemSpec{PC: pc, Addr: addr, Dep: -1})
}

// LoadDep emits an 8-byte load whose address depends on producer load dep.
func (e *Emitter) LoadDep(pc uint64, addr memmodel.Addr, dep int) int {
	return e.LoadSpec(MemSpec{PC: pc, Addr: addr, Dep: dep})
}

// Store emits a plain 8-byte store.
func (e *Emitter) Store(pc uint64, addr memmodel.Addr) int {
	return e.StoreSpec(MemSpec{PC: pc, Addr: addr, Dep: -1})
}

func (e *Emitter) mem(kind Kind, s MemSpec) int {
	if s.Size == 0 {
		s.Size = 8
	}
	i := e.Len()
	dep := NoDep
	if s.Dep >= 0 && s.Dep < i {
		dep = int32(s.Dep)
		e.reach = max(e.reach, i-s.Dep)
	}
	// The generator methods push ops and payloads directly: routing them
	// through Append's Record made generating the perfbench sim traces a
	// quarter slower.
	o := op{arg: uint32(dep), kind: kind}
	if !e.fit(&o, s.PC, shapeKey(s.Size, false, s.Hints)) || (uint64(s.Addr)|s.Value|s.Reg)>>32 != 0 {
		e.keepWhole(o, Record{PC: s.PC, Addr: s.Addr, Value: s.Value, Reg: s.Reg, Dep: dep, Kind: kind, Size: s.Size, Hints: s.Hints})
		return i
	}
	e.ops.push(o)
	e.accs.push(payload{addr: uint32(s.Addr), value: uint32(s.Value)})
	e.pushReg(uint32(s.Reg))
	return i
}

// Branch emits a conditional branch.
func (e *Emitter) Branch(pc uint64, taken bool) {
	o := op{arg: noDepArg, kind: KindBranch}
	if !e.fit(&o, pc, shapeKey(0, taken, SWHints{})) {
		e.keepWhole(o, Record{PC: pc, Dep: NoDep, Kind: KindBranch, Taken: taken})
		return
	}
	e.ops.push(o)
}

// EndWarmup marks the warm-up boundary: the simulator resets statistics
// here. Only the first marker is honoured by the simulator.
func (e *Emitter) EndWarmup() {
	e.ops.push(op{arg: noDepArg, kind: KindWarmupEnd})
}

// Finish returns the accumulated trace. The emitter must not be used after
// Finish.
func (e *Emitter) Finish() *Trace {
	t := &Trace{Name: e.name, ops: e.ops.flatten(), accs: e.accs.flatten(), pcs: exact(e.pcs.keys),
		shapes: make([]shape, len(e.shapes.keys)), whole: exact(e.whole), depReach: e.reach}
	if e.regs.len() > 0 {
		t.regs = e.regs.flatten()
	}
	for i, k := range e.shapes.keys {
		t.shapes[i] = unpackShape(k)
	}
	*e = Emitter{}
	return t
}

// interner assigns dense indices to the distinct values it is given, up to
// a limit. A small direct-mapped cache in front of the map answers the
// few values a trace repeats without hashing them through it.
type interner struct {
	keys []uint64
	ids  map[uint64]uint16
	// cache maps a key's slot to the key and its index; the zero entry
	// maps key 0 to index 0, which newInterner interns first.
	cache [64]struct {
		key uint64
		idx uint16
	}
	limit int
}

func newInterner(limit int) interner {
	return interner{keys: []uint64{0}, ids: map[uint64]uint16{0: 0}, limit: limit}
}

// index returns k's index, interning k if it is new, and false when k is
// new and the table already holds limit keys.
func (in *interner) index(k uint64) (uint16, bool) {
	slot := &in.cache[(k*0x9e3779b97f4a7c15)>>58]
	if slot.key == k {
		return slot.idx, true
	}
	idx, ok := in.ids[k]
	if !ok {
		if len(in.keys) == in.limit {
			return 0, false
		}
		idx = uint16(len(in.keys))
		in.keys = append(in.keys, k)
		in.ids[k] = idx
	}
	slot.key, slot.idx = k, idx
	return idx, true
}

// chunkLen is the number of elements in one emitter chunk: 32 KiB of ops
// or payloads.
const chunkLen = 4096

// chunks is an append-only sequence held in fixed-size blocks.
type chunks[T any] struct {
	full [][]T
	cur  []T
}

func (c *chunks[T]) len() int { return len(c.full)*chunkLen + len(c.cur) }

func (c *chunks[T]) push(v T) {
	if len(c.cur) == cap(c.cur) {
		if c.cur != nil {
			c.full = append(c.full, c.cur)
		}
		c.cur = make([]T, 0, chunkLen)
	}
	c.cur = append(c.cur, v)
}

// last returns the newest element, or nil when there is none.
func (c *chunks[T]) last() *T {
	if len(c.cur) == 0 {
		return nil
	}
	return &c.cur[len(c.cur)-1]
}

// flatten copies the elements into one slice of exactly their length.
func (c *chunks[T]) flatten() []T {
	out := make([]T, c.len())
	n := 0
	for _, b := range c.full {
		n += copy(out[n:], b)
	}
	copy(out[n:], c.cur)
	return out
}

// exact copies s into a slice of exactly its length.
func exact[T any](s []T) []T { return append(make([]T, 0, len(s)), s...) }
