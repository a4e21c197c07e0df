package trace

import (
	"unsafe"

	"semloc/internal/memmodel"
)

// Trace is a complete generated trace plus its metadata. Its records are
// stored compactly and read in order through a Cursor; an Emitter builds
// one.
//
// Every record keeps one 8-byte op, and each load or store also one 8-byte
// payload, so compute and branch records carry no address or value bytes.
// An op names its PC and its (size, taken, hints) shape by index into two
// small tables of the values the trace uses, and a payload holds the low
// 32 bits of Addr and Value. Reg lives in a column of its own, present only
// when some access has a nonzero Reg. A record that does not fit — an
// Addr, Value or Reg of 2^32 or more, or a new PC or shape when its table
// is full — is kept whole in a side list instead, its op marked escPC.
// Every array is allocated at its exact length.
type Trace struct {
	// Name identifies the workload (Table 3 naming).
	Name string
	// ops holds one entry per record; Dep indices refer into it.
	ops []op
	// accs holds the payload of each load and store, in record order.
	accs []payload
	// regs holds each load's and store's Reg, parallel to accs; nil when
	// every Reg is zero.
	regs []uint32
	// pcs and shapes are the interned tables ops index.
	pcs    []uint64
	shapes []shape
	// whole holds the records kept whole, in record order.
	whole []Record
	// depReach is derived as records are emitted, never serialized.
	depReach int
}

// op is the part of a record every kind has.
type op struct {
	// arg is Count for KindCompute and uint32(Dep) for every other kind.
	arg uint32
	// pc indexes Trace.pcs, or is escPC for a record kept whole.
	pc    uint16
	kind  Kind
	shape uint8
}

// escPC is the op pc index of a record kept whole; Trace.pcs never holds
// an entry at it.
const escPC = 1<<16 - 1

// noDepArg is NoDep as an op arg.
const noDepArg = ^uint32(0)

// payload is the rest of a load or store record: the low 32 bits of its
// Addr and Value.
type payload struct {
	addr, value uint32
}

// shape is the part of a record that takes few distinct values per trace.
type shape struct {
	hints SWHints
	size  uint8
	taken bool
}

// shapeKey packs a shape into the 50 bits the emitter interns it by; the
// zero shape packs to 0.
func shapeKey(size uint8, taken bool, h SWHints) uint64 {
	k := uint64(size) | uint64(h.TypeID)<<8 | uint64(h.LinkOffset)<<24 | uint64(h.RefForm)<<40
	if taken {
		k |= 1 << 48
	}
	if h.Valid {
		k |= 1 << 49
	}
	return k
}

// unpackShape inverts shapeKey.
func unpackShape(k uint64) shape {
	return shape{
		size:  uint8(k),
		taken: k&(1<<48) != 0,
		hints: SWHints{Valid: k&(1<<49) != 0, TypeID: uint16(k >> 8), LinkOffset: uint16(k >> 24), RefForm: RefForm(k >> 40)},
	}
}

// Len returns the number of records.
func (t *Trace) Len() int { return len(t.ops) }

// Accesses returns the number of loads and stores.
func (t *Trace) Accesses() int { return len(t.accs) }

// DepReach returns the trace's dependency reach: the largest distance
// i − Dep from a load or store at index i back to its producer, over the
// records whose Dep points backwards (0 when none does). A timing model
// needs completion times for only that many records behind the current
// one.
func (t *Trace) DepReach() int { return t.depReach }

// Footprint returns the bytes the trace's records occupy — ops, payloads,
// the Reg column, the interned tables and the records kept whole — and the
// number of records kept whole.
func (t *Trace) Footprint() (bytes, whole int) {
	bytes = len(t.ops)*int(unsafe.Sizeof(op{})) +
		len(t.accs)*int(unsafe.Sizeof(payload{})) +
		len(t.regs)*4 +
		len(t.pcs)*8 +
		len(t.shapes)*int(unsafe.Sizeof(shape{})) +
		len(t.whole)*int(unsafe.Sizeof(Record{}))
	return bytes, len(t.whole)
}

// Cursor walks a trace's records in order:
//
//	c := tr.Cursor()
//	for c.Next() {
//		i, r := c.Index(), c.Record()
//		...
//	}
//
// Record returns a view the cursor reuses, so walking a trace never
// allocates. A cursor only reads the trace, and any number may walk one
// trace concurrently. Declare the cursor outside the loop statement: a
// variable declared in it is copied on every iteration.
type Cursor struct {
	ops    []op
	accs   []payload
	regs   []uint32
	pcs    []uint64
	shapes []shape
	whole  []Record
	i      int
	// acc is the payload index of the next load or store, w the index of
	// the next record kept whole.
	acc, w int
	// hist is the branch history before record i+1.
	hist uint16
	rec  Record
}

// Cursor returns a cursor positioned before the first record.
func (t *Trace) Cursor() Cursor {
	return Cursor{ops: t.ops, accs: t.accs, regs: t.regs, pcs: t.pcs, shapes: t.shapes, whole: t.whole, i: -1}
}

// Next advances to the next record and reports whether there was one.
func (c *Cursor) Next() bool {
	if c.i+1 >= len(c.ops) {
		c.i = len(c.ops)
		return false
	}
	c.i++
	o := c.ops[c.i]
	r := &c.rec
	if o.pc == escPC {
		*r = c.whole[c.w]
		c.w++
		r.BranchHist = c.hist
		if r.IsMem() {
			c.acc++ // its payload slot is unused
		} else if r.Kind == KindBranch {
			c.hist = foldBranch(c.hist, r.Taken)
		}
		return true
	}
	// Field by field: building a whole Record and copying it in stalls
	// on store forwarding, several times the cost of the walk itself.
	s := &c.shapes[o.shape]
	r.PC, r.Count, r.Dep = c.pcs[o.pc], 0, int32(o.arg)
	r.Kind, r.Size, r.Taken, r.BranchHist = o.kind, s.size, s.taken, c.hist
	r.Addr, r.Value, r.Reg, r.Hints = 0, 0, 0, s.hints
	switch o.kind {
	case KindCompute:
		r.Count, r.Dep = o.arg, NoDep
	case KindLoad, KindStore:
		p := c.accs[c.acc]
		r.Addr, r.Value = memmodel.Addr(p.addr), uint64(p.value)
		if c.regs != nil {
			r.Reg = uint64(c.regs[c.acc])
		}
		c.acc++
	case KindBranch:
		c.hist = foldBranch(c.hist, s.taken)
	}
	return true
}

// Index returns the current record's index.
func (c *Cursor) Index() int { return c.i }

// Record returns the current record. The view is overwritten by the next
// call to Next; callers copy it to keep it.
func (c *Cursor) Record() *Record { return &c.rec }

// foldBranch shifts one branch outcome into a global history.
func foldBranch(hist uint16, taken bool) uint16 {
	hist <<= 1
	if taken {
		hist |= 1
	}
	return hist
}
