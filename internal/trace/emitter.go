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
}

// NewEmitter creates an emitter for a workload with the given name.
func NewEmitter(name string) *Emitter {
	return &Emitter{name: name}
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
		return
	}
	e.ops.push(op{kind: KindCompute, arg: uint32(n)})
}

// Append emits r as given, except BranchHist, which a Cursor derives. The
// fields r's kind does not use are dropped: a cursor reads them back as
// zero, and Dep of a compute record as NoDep. Append checks nothing;
// Validate does. The decoder builds traces through it.
func (e *Emitter) Append(r Record) {
	o := op{pc: r.PC, arg: uint32(r.Dep), kind: r.Kind, taken: r.Taken, size: r.Size}
	switch r.Kind {
	case KindCompute:
		o.arg = r.Count
	case KindLoad, KindStore:
		e.accs.push(payload{addr: r.Addr, value: r.Value, reg: r.Reg, hints: r.Hints})
	}
	e.ops.push(o)
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
	}
	// The generator methods push ops and payloads directly: routing them
	// through Append's Record made generating the perfbench sim traces a
	// quarter slower.
	e.ops.push(op{pc: s.PC, arg: uint32(dep), kind: kind, size: s.Size})
	e.accs.push(payload{addr: s.Addr, value: s.Value, reg: s.Reg, hints: s.Hints})
	return i
}

// Branch emits a conditional branch.
func (e *Emitter) Branch(pc uint64, taken bool) {
	e.ops.push(op{pc: pc, arg: noDepArg, kind: KindBranch, taken: taken})
}

// EndWarmup marks the warm-up boundary: the simulator resets statistics
// here. Only the first marker is honoured by the simulator.
func (e *Emitter) EndWarmup() {
	e.ops.push(op{arg: noDepArg, kind: KindWarmupEnd})
}

// Finish returns the accumulated trace. The emitter must not be used after
// Finish.
func (e *Emitter) Finish() *Trace {
	t := &Trace{Name: e.name, ops: e.ops.flatten(), accs: e.accs.flatten()}
	*e = Emitter{}
	return t
}

// chunkLen is the number of elements in one emitter chunk: 64 KiB of ops,
// 128 KiB of payloads.
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
