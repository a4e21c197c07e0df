package trace

import (
	"encoding/binary"

	"semloc/internal/memmodel"
)

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
// Finish assembles them once into the trace's exact-length arrays. The
// op byte of a record is found through a two-way set-associative memo of
// the raw ops seen last, and only on a miss through the interners. Each
// load or store then appends its differences from the last access of its
// op to the streams (see Trace).
type Emitter struct {
	name string
	ops  chunks[uint8]
	// pay and regs are the streams of Trace; regs is empty until the
	// first nonzero Reg.
	pay, regs chunks[byte]
	// last holds each op's last access; coded counts the accesses in the
	// streams.
	last  [256]last
	coded int
	// pcs and shapes intern the PCs and packed shapes (shapeKey) of the
	// ops, and keys the packed ops the op bytes index.
	pcs, shapes, keys interner
	// memo maps a raw op's set to the two ops that last entered it, the
	// later first, and their bytes; two hot ops whose hashes collide both
	// stay. A zero way matches no op: a compute op always carries the
	// no-dep bit.
	memo [256][2]struct {
		pc, shape, ka uint64
		b             uint8
	}
	whole []Record
	// pend is the compute record still growing while pending; Len counts
	// it, and the next record or Finish emits it.
	pend    Record
	pending bool
	// reach is the dependency reach of the records so far (Trace.DepReach).
	reach int
}

// NewEmitter creates an emitter for a workload with the given name.
func NewEmitter(name string) *Emitter {
	// PC 0 and the zero shape sit at index 0 of their tables, where the
	// zero entries of the interners' caches point, so each holds one more
	// key than the op table can use; the op table starts empty, and no op
	// packs to 0.
	return &Emitter{name: name, pcs: newInterner(maxEntries + 1), shapes: newInterner(maxEntries + 1),
		keys: interner{ids: map[uint64]uint16{}, limit: maxEntries}}
}

// Len returns the number of records emitted so far.
func (e *Emitter) Len() int {
	if e.pending {
		return e.ops.len() + 1
	}
	return e.ops.len()
}

// Compute emits n back-to-back non-memory instructions, merged into the
// compute record before it if there is one. n <= 0 is ignored.
func (e *Emitter) Compute(n int) {
	if n <= 0 {
		return
	}
	if e.pending {
		e.pend.Count += uint32(n)
		return
	}
	e.pending, e.pend = true, Record{Count: uint32(n), Dep: NoDep, Kind: KindCompute}
}

// flush emits the pending compute record, if any.
func (e *Emitter) flush() {
	if !e.pending {
		return
	}
	e.pending = false
	p := &e.pend
	if b, ok := e.op(0, shapeKey(0, p.Taken, SWHints{}), KindCompute, true, p.Count); ok {
		e.ops.push(b)
		return
	}
	e.keepWhole(*p)
}

// Append emits kept(r). A compute record grows by the Compute calls after
// it (Append never merges); BranchHist is derived by the cursor. Append
// checks nothing; Validate does.
func (e *Emitter) Append(r Record) {
	e.flush()
	r = kept(r)
	i := e.ops.len()
	switch r.Kind {
	case KindCompute:
		e.pending, e.pend = true, r
		return
	case KindLoad, KindStore:
		if r.Dep >= 0 && int(r.Dep) < i {
			e.reach = max(e.reach, i-int(r.Dep))
		}
	case KindBranch, KindWarmupEnd:
	default:
		e.keepWhole(r)
		return
	}
	dist := uint32(i) - uint32(r.Dep) // modulo 2^32, as the cursor undoes it
	if r.Dep == NoDep {
		dist = 0
	}
	b, ok := e.op(r.PC, shapeKey(r.Size, r.Taken, r.Hints), r.Kind, r.Dep == NoDep, dist)
	if !ok {
		e.keepWhole(r)
		return
	}
	e.ops.push(b)
	if r.IsMem() {
		e.code(b, uint64(r.Addr), r.Value, r.Reg)
	}
}

// kept returns r with only the fields a trace keeps for its kind, the
// fields Append stores and Read accepts. Every kind keeps Taken. A load
// or store keeps PC, Addr, Value, Reg, Size and Dep, and its Hints when
// they are Valid; a branch keeps PC; a compute record keeps Count; a
// record of an unknown kind, which Write refuses, keeps PC, Size and Dep.
// The fields a record does not keep are zero, and its Dep NoDep.
func kept(r Record) Record {
	k := Record{Kind: r.Kind, Taken: r.Taken, Dep: NoDep}
	switch r.Kind {
	case KindLoad, KindStore:
		k.PC, k.Addr, k.Value, k.Reg, k.Size, k.Dep = r.PC, r.Addr, r.Value, r.Reg, r.Size, r.Dep
		if r.Hints.Valid {
			k.Hints = r.Hints
		}
	case KindBranch:
		k.PC = r.PC
	case KindCompute:
		k.Count = r.Count
	case KindWarmupEnd:
	default:
		k.PC, k.Size, k.Dep = r.PC, r.Size, r.Dep
	}
	return k
}

// op returns the byte of the op (pc, shape, kind, noDep, arg), interning
// it if it is new, and false when it does not fit the table. arg is the
// count of a compute op and the dependency distance of any other.
func (e *Emitter) op(pc, shape uint64, kind Kind, noDep bool, arg uint32) (uint8, bool) {
	ka := uint64(arg) | uint64(kind)<<32
	if noDep {
		ka |= 1 << 40
	}
	set := &e.memo[(pc*0x9e3779b97f4a7c15^shape*0xbf58476d1ce4e5b9^ka*0x94d049bb133111eb)>>56]
	if m := &set[0]; m.pc == pc && m.shape == shape && m.ka == ka {
		return m.b, true
	}
	if m := &set[1]; m.pc == pc && m.shape == shape && m.ka == ka {
		return m.b, true
	}
	p, okPC := e.pcs.index(pc)
	s, okShape := e.shapes.index(shape)
	if !okPC || !okShape {
		return 0, false
	}
	b, ok := e.keys.index(ka | uint64(p)<<41 | uint64(s)<<49) // 57 bits
	if !ok {
		return 0, false
	}
	set[1] = set[0]
	m := &set[0]
	m.pc, m.shape, m.ka, m.b = pc, shape, ka, uint8(b)
	return uint8(b), true
}

// entry decodes the op key k: ka (argument, kind, no-dep bit), then the
// indices of its PC and shape.
func (e *Emitter) entry(k uint64) entry {
	s := e.shapes.keys[uint8(k>>49)]
	en := entry{pc: e.pcs.keys[uint8(k>>41)], kind: Kind(k >> 32), size: uint8(s), taken: s&(1<<48) != 0,
		noDep: k&(1<<40) != 0,
		hints: SWHints{Valid: s&(1<<49) != 0, TypeID: uint16(s >> 8), LinkOffset: uint16(s >> 24), RefForm: RefForm(s >> 40)}}
	if en.kind == KindCompute {
		en.count = uint32(k)
	} else {
		en.dist = int32(uint32(k))
	}
	return en
}

// shapeKey packs a size, a branch outcome and hints into the 50 bits the
// emitter interns them by; the zero shape packs to 0.
func shapeKey(size uint8, taken bool, h SWHints) uint64 {
	k := uint64(size)
	if taken {
		k |= 1 << 48
	}
	if h.Valid { // hints that are not Valid pack, and read back, as zero
		k |= uint64(h.TypeID)<<8 | uint64(h.LinkOffset)<<24 | uint64(h.RefForm)<<40 | 1<<49
	}
	return k
}

// keepWhole emits r, which does not fit the table, into the side list.
// Like the table, it keeps Hints only when they are Valid.
func (e *Emitter) keepWhole(r Record) {
	if !r.Hints.Valid {
		r.Hints = SWHints{}
	}
	b := uint8(escOther)
	if r.Kind == KindLoad {
		b = escLoad
	}
	e.ops.push(b)
	e.whole = append(e.whole, r)
}

// code appends the access of op b to the streams: its Addr and Value, and
// its Reg once the Reg stream exists, each as a difference from the op's
// last access.
func (e *Emitter) code(b uint8, addr, value, reg uint64) {
	l := &e.last[b]
	e.pay.reserve(2 * binary.MaxVarintLen64)
	n := len(e.pay.cur)
	buf := e.pay.cur[n : n+2*binary.MaxVarintLen64]
	k := binary.PutVarint(buf, int64(addr-l.addr))
	k += binary.PutVarint(buf[k:], int64(value-l.value))
	e.pay.cur = e.pay.cur[:n+k] // a reslice: no write barrier
	l.addr, l.value = addr, value
	e.coded++
	if reg == l.reg && e.regs.cur == nil {
		return
	}
	if e.regs.cur == nil {
		// The first nonzero Reg: every access before it differed by 0.
		for range e.coded - 1 {
			e.regs.push(0)
		}
	}
	e.regs.reserve(binary.MaxVarintLen64)
	n = len(e.regs.cur)
	k = binary.PutVarint(e.regs.cur[n:n+binary.MaxVarintLen64], int64(reg-l.reg))
	e.regs.cur = e.regs.cur[:n+k]
	l.reg = reg
}

// MemSpec fully describes an annotated memory access for LoadSpec/StoreSpec.
type MemSpec struct {
	PC    uint64
	Addr  memmodel.Addr
	Size  uint8   // defaults to 8
	Value uint64  // loaded/stored value (e.g. the pointer fetched)
	Reg   uint64  // register-operand context (e.g. search key)
	Dep   int     // absolute index of producer load, or <0 for none
	Hints SWHints // kept only when Valid
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

// Store emits a plain 8-byte store.
func (e *Emitter) Store(pc uint64, addr memmodel.Addr) int {
	return e.StoreSpec(MemSpec{PC: pc, Addr: addr, Dep: -1})
}

func (e *Emitter) mem(kind Kind, s MemSpec) int {
	e.flush()
	if s.Size == 0 {
		s.Size = 8
	}
	i := e.ops.len()
	dep, dist := NoDep, 0
	if s.Dep >= 0 && s.Dep < i {
		dep, dist = int32(s.Dep), i-s.Dep
		e.reach = max(e.reach, dist)
	}
	// The generator methods push ops and code accesses directly: routing
	// them through Append's Record made generating the perfbench sim traces
	// a quarter slower.
	if b, ok := e.op(s.PC, shapeKey(s.Size, false, s.Hints), kind, dep == NoDep, uint32(dist)); ok {
		e.ops.push(b)
		e.code(b, uint64(s.Addr), s.Value, s.Reg)
		return i
	}
	e.keepWhole(Record{PC: s.PC, Addr: s.Addr, Value: s.Value, Reg: s.Reg, Dep: dep, Kind: kind, Size: s.Size, Hints: s.Hints})
	return i
}

// Branch emits a conditional branch.
func (e *Emitter) Branch(pc uint64, taken bool) {
	e.flush()
	if b, ok := e.op(pc, shapeKey(0, taken, SWHints{}), KindBranch, true, 0); ok {
		e.ops.push(b)
		return
	}
	e.keepWhole(Record{PC: pc, Dep: NoDep, Kind: KindBranch, Taken: taken})
}

// EndWarmup marks the warm-up boundary: the simulator resets statistics
// here. Only the first marker is honoured by the simulator.
func (e *Emitter) EndWarmup() {
	e.Append(Record{Kind: KindWarmupEnd, Dep: NoDep})
}

// Finish returns the accumulated trace. The emitter must not be used after
// Finish.
func (e *Emitter) Finish() *Trace {
	e.flush()
	t := &Trace{Name: e.name, ops: e.ops.flatten(), pay: e.pay.flatten(), table: make([]entry, len(e.keys.keys)),
		whole: exact(e.whole), accesses: e.coded, depReach: e.reach}
	if e.regs.cur != nil {
		t.regs = e.regs.flatten()
	}
	for i := range t.whole {
		if t.whole[i].IsMem() {
			t.accesses++
		}
	}
	for i, k := range e.keys.keys {
		t.table[i] = e.entry(k)
	}
	*e = Emitter{}
	return t
}

// interner assigns dense indices to the distinct values it is given, up to
// a limit. A small direct-mapped cache in front of the map answers the
// few values a trace repeats without hashing them through it. Its zero
// entries map key 0 to index 0, so a table either holds 0 at index 0 or
// is never asked for 0.
type interner struct {
	keys  []uint64
	ids   map[uint64]uint16
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

// chunkLen is the capacity of one emitter chunk.
const chunkLen = 4096

// chunks is an append-only sequence held in blocks of chunkLen capacity.
type chunks[T any] struct {
	full [][]T
	cur  []T
	n    int // elements in full
}

func (c *chunks[T]) len() int { return c.n + len(c.cur) }

func (c *chunks[T]) push(v T) {
	c.reserve(1)
	c.cur = append(c.cur, v)
}

// reserve makes room for k more elements in cur, k <= chunkLen, starting
// a new block if cur has less.
func (c *chunks[T]) reserve(k int) {
	if cap(c.cur)-len(c.cur) >= k {
		return
	}
	if c.cur != nil {
		c.full = append(c.full, c.cur)
		c.n += len(c.cur)
	}
	c.cur = make([]T, 0, chunkLen)
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
