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
// Finish assembles them once into the trace's exact-length arrays. A
// record's op byte comes from one open-addressed index over the raw ops
// seen so far; a new op takes the next byte and its entry joins the table
// at once. Each load or store then appends its differences from the last
// access of its op to the streams (see Trace).
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
	// table holds the distinct ops in the order they were first seen, each
	// at the index of its byte, and slots finds an op's byte from its raw
	// key by linear probing. The table holds at most maxEntries ops, so at
	// most half the slots fill and a probe always ends at an empty slot.
	table []entry
	slots [1 << slotBits]slot
	whole []Record
	// count and taken are the compute record still growing while pending;
	// Len counts it, and the next record or Finish emits it.
	count          uint32
	taken, pending bool
	// reach is the dependency reach of the records so far (Trace.DepReach).
	reach int
}

// slot is one slot of the emitter's op index: an op's raw key — its PC,
// its packed shape (shapeKey) and its packed kind, no-dep bit and
// argument (kindArg) — and its byte. Every op's third word is nonzero, so
// a slot whose third word is zero is empty.
type slot struct {
	pc, shape, ka uint64
	b             uint8
}

// slotBits sizes the op index at twice the table's 256 bytes.
const slotBits = 9

// NewEmitter creates an emitter for a workload with the given name.
func NewEmitter(name string) *Emitter {
	return &Emitter{name: name}
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
		e.count += uint32(n)
		return
	}
	e.pending, e.count, e.taken = true, uint32(n), false
}

// flush emits the pending compute record, if any.
func (e *Emitter) flush() {
	if !e.pending {
		return
	}
	e.pending = false
	if b, ok := e.op(0, shapeKey(0, e.taken, SWHints{}), kindArg(KindCompute, true, e.count)); ok {
		e.ops.push(b)
		return
	}
	e.keepWhole(Record{Count: e.count, Dep: NoDep, Kind: KindCompute, Taken: e.taken})
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
		e.pending, e.count, e.taken = true, r.Count, r.Taken
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
	b, ok := e.op(r.PC, shapeKey(r.Size, r.Taken, r.Hints), kindArg(r.Kind, r.Dep == NoDep, dist))
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

// op returns the byte of the op with the raw key (pc, shape, ka), adding
// it to the table if it is new, and false when it is new and the table is
// full.
func (e *Emitter) op(pc, shape, ka uint64) (uint8, bool) {
	h := (pc*0x9e3779b97f4a7c15 ^ shape*0xbf58476d1ce4e5b9 ^ ka*0x94d049bb133111eb) >> (64 - slotBits)
	s := &e.slots[h]
	for s.ka != ka || s.pc != pc || s.shape != shape {
		if s.ka == 0 {
			return e.add(s, pc, shape, ka)
		}
		h = (h + 1) % uint64(len(e.slots))
		s = &e.slots[h]
	}
	return s.b, true
}

// add gives the op with the raw key (pc, shape, ka) the next byte, in the
// empty slot s, and appends its entry to the table; false when the table
// is full.
func (e *Emitter) add(s *slot, pc, shape, ka uint64) (uint8, bool) {
	if len(e.table) == maxEntries {
		return 0, false
	}
	b := uint8(len(e.table))
	*s = slot{pc: pc, shape: shape, ka: ka, b: b}
	en := entry{pc: pc, kind: Kind(ka >> 32), size: uint8(shape), taken: shape&(1<<48) != 0, noDep: ka&(1<<40) != 0,
		hints: SWHints{Valid: shape&(1<<49) != 0, TypeID: uint16(shape >> 8), RefForm: RefForm(shape >> 24), LinkOffset: uint16(shape >> 32)}}
	if en.kind == KindCompute {
		en.count = uint32(ka)
	} else {
		en.dist = int32(uint32(ka))
	}
	e.table = append(e.table, en)
	return b, true
}

// kindArg packs a kind, the no-dep bit and an argument — the count of a
// compute op, the dependency distance of any other — into the third word
// of an op's key. A compute op always carries the no-dep bit, so no op
// packs to 0.
func kindArg(kind Kind, noDep bool, arg uint32) uint64 {
	k := uint64(arg) | uint64(kind)<<32
	if noDep {
		k |= 1 << 40
	}
	return k
}

// shapeKey packs a size, a branch outcome and hints into the second word
// of an op's key, 50 bits; the zero shape packs to 0. No two hint fields
// that sit next to each other in SWHints sit next to each other, in the
// same order, in the key: the compiler merges the loads of such a pair
// into one wider load, and a caller that has just stored the two fields
// separately makes that load wait until both stores reach the cache, as
// the store buffer cannot forward two stores to one load. With TypeID,
// LinkOffset and RefForm packed in that order, generating graph500-list
// spent about 8% of its time on that stall.
func shapeKey(size uint8, taken bool, h SWHints) uint64 {
	k := uint64(size)
	if taken {
		k |= 1 << 48
	}
	if h.Valid { // hints that are not Valid pack, and read back, as zero
		k |= uint64(h.TypeID)<<8 | uint64(h.RefForm)<<24 | uint64(h.LinkOffset)<<32 | 1<<49
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
// last access. One room check covers both of the payload's varints.
func (e *Emitter) code(b uint8, addr, value, reg uint64) {
	l := &e.last[b]
	e.pay.reserve(2 * binary.MaxVarintLen64)
	buf := e.pay.cur[:len(e.pay.cur)+2*binary.MaxVarintLen64]
	k := putDiff(buf, len(e.pay.cur), addr-l.addr)
	k = putDiff(buf, k, value-l.value)
	e.pay.cur = e.pay.cur[:k] // resliced in place: no pointer store, no write barrier
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
	buf = e.regs.cur[:len(e.regs.cur)+binary.MaxVarintLen64]
	k = putDiff(buf, len(e.regs.cur), reg-l.reg)
	e.regs.cur = e.regs.cur[:k]
	l.reg = reg
}

// putDiff writes the difference d at buf[k:] as a zigzag varint in
// encoding/binary's format and returns the index after it.
func putDiff(buf []byte, k int, d uint64) int {
	x := d<<1 ^ uint64(int64(d)>>63)
	for x >= 0x80 {
		buf[k] = byte(x) | 0x80
		x >>= 7
		k++
	}
	buf[k] = byte(x)
	return k + 1
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

// LoadSpec emits the fully annotated load *s and returns its record index.
// It keeps no pointer to s, so a caller's &MemSpec{…} stays on the
// caller's stack, built once where mem reads it. A MemSpec taken by value
// is copied, and the copy reads the caller's narrow field stores back with
// wider loads, which the store buffer cannot forward, so the copy waits
// for those stores to reach the cache.
func (e *Emitter) LoadSpec(s *MemSpec) int {
	return e.mem(KindLoad, s)
}

// StoreSpec emits the fully annotated store *s and returns its record
// index; like LoadSpec, it keeps no pointer to s.
func (e *Emitter) StoreSpec(s *MemSpec) int {
	return e.mem(KindStore, s)
}

// Load emits a plain 8-byte load with no dependency or hints.
func (e *Emitter) Load(pc uint64, addr memmodel.Addr) int {
	return e.LoadSpec(&MemSpec{PC: pc, Addr: addr, Dep: -1})
}

// Store emits a plain 8-byte store.
func (e *Emitter) Store(pc uint64, addr memmodel.Addr) int {
	return e.StoreSpec(&MemSpec{PC: pc, Addr: addr, Dep: -1})
}

// mem emits a load or store in one pass: it emits a pending compute
// record, looks up the op and pushes its byte, then codes the access.
// Routing generator accesses through Append's Record made generating the
// perfbench sim traces a quarter slower.
func (e *Emitter) mem(kind Kind, s *MemSpec) int {
	if e.pending {
		e.flush()
	}
	i := e.ops.len()
	size := s.Size
	if size == 0 {
		size = 8
	}
	dep, ka := NoDep, kindArg(kind, true, 0)
	if s.Dep >= 0 && s.Dep < i {
		dep, ka = int32(s.Dep), kindArg(kind, false, uint32(i-s.Dep))
		e.reach = max(e.reach, i-s.Dep)
	}
	b, ok := e.op(s.PC, shapeKey(size, false, s.Hints), ka)
	if !ok {
		e.keepWhole(Record{PC: s.PC, Addr: s.Addr, Value: s.Value, Reg: s.Reg, Dep: dep, Kind: kind, Size: size, Hints: s.Hints})
		return i
	}
	e.ops.push(b)
	e.code(b, uint64(s.Addr), s.Value, s.Reg)
	return i
}

// Branch emits a conditional branch.
func (e *Emitter) Branch(pc uint64, taken bool) {
	e.flush()
	if b, ok := e.op(pc, shapeKey(0, taken, SWHints{}), kindArg(KindBranch, true, 0)); ok {
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
	t := &Trace{Name: e.name, ops: e.ops.flatten(), pay: e.pay.flatten(), table: exact(e.table),
		whole: exact(e.whole), accesses: e.coded, depReach: e.reach}
	if e.regs.cur != nil {
		t.regs = e.regs.flatten()
	}
	for i := range t.whole {
		if t.whole[i].IsMem() {
			t.accesses++
		}
	}
	*e = Emitter{}
	return t
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
