package trace

import (
	"unsafe"

	"semloc/internal/memmodel"
)

// Trace is a complete generated trace plus its metadata. Its records are
// stored compactly and read in order through a Cursor; an Emitter builds
// one.
//
// A program walks its data structures from a few instruction sites, so a
// trace holds few distinct ops: a record less its Addr, Value and Reg,
// with its dependency as a distance back from the record. Every record
// keeps one byte, an index into a table of at most maxEntries such ops,
// so compute and branch records carry no address or value bytes. Each
// load or store appends its Addr and Value to a byte stream as two zigzag
// varints in encoding/binary's format, each the difference modulo 2^64
// from the Addr or Value of the last access with the same op byte: one
// instruction's successive accesses are related, so most differences take
// a byte or two. Reg is coded the same way into a second stream, present
// only once some access has a nonzero Reg. A record that does not fit — an
// unknown kind, or a new op once the table is full — is kept whole in a
// side list instead, its byte escLoad for a load and escOther for any
// other kind, and takes no stream bytes. Every array is allocated at its
// exact length.
type Trace struct {
	// Name identifies the workload (Table 3 naming).
	Name string
	// ops holds one byte per record, an index into table or an escape;
	// Dep indices refer into it.
	ops []uint8
	// pay holds the Addr and Value differences of each load and store
	// with an op byte, in record order.
	pay []byte
	// regs holds their Reg differences; nil when every Reg is zero.
	regs []byte
	// table holds the distinct ops ops index.
	table []entry
	// whole holds the records kept whole, in record order.
	whole []Record
	// accesses counts the loads and stores, those kept whole included.
	accesses int
	// depReach is derived as records are emitted or read, never written.
	depReach int
}

// entry is one distinct op: every field of a record but Addr, Value, Reg
// and the derived BranchHist, with Dep relative to the record.
type entry struct {
	pc    uint64
	hints SWHints
	// count is Count for KindCompute and 0 for every other kind.
	count uint32
	// dist is i − Dep modulo 2^32 for the record at index i, and 0 when
	// noDep; the cursor's int32 arithmetic wraps back to Dep exactly.
	dist  int32
	kind  Kind
	size  uint8
	taken bool
	// noDep marks Dep NoDep; every compute op carries it.
	noDep bool
}

// maxEntries is the most distinct ops a trace's table holds; the op bytes
// at and above it are the escapes of records kept whole.
const maxEntries = 254

const (
	escLoad  = maxEntries     // a load kept whole
	escOther = maxEntries + 1 // any other record kept whole
)

// last holds the Addr, Value and Reg of an op's last access, which the
// streams' differences for the op's next access are taken from. Emitter
// and Cursor keep one per op byte.
type last struct {
	addr, value, reg uint64
}

// Len returns the number of records.
func (t *Trace) Len() int { return len(t.ops) }

// Accesses returns the number of loads and stores.
func (t *Trace) Accesses() int { return t.accesses }

// DepReach returns the trace's dependency reach: the largest distance
// i − Dep from a load or store at index i back to its producer, over the
// records whose Dep points backwards (0 when none does). A timing model
// needs completion times for only that many records behind the current
// one.
func (t *Trace) DepReach() int { return t.depReach }

// Footprint returns the bytes the trace's records occupy — op bytes, both
// streams, the op table and the records kept whole — and the number of
// records kept whole.
func (t *Trace) Footprint() (bytes, whole int) {
	bytes = len(t.ops) + len(t.pay) + len(t.regs) +
		len(t.table)*int(unsafe.Sizeof(entry{})) +
		len(t.whole)*int(unsafe.Sizeof(Record{}))
	return bytes, len(t.whole)
}

// isLoad reports whether record i is a load.
func (t *Trace) isLoad(i int) bool {
	switch b := t.ops[i]; b {
	case escLoad:
		return true
	case escOther:
		return false
	default:
		return t.table[b].kind == KindLoad
	}
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
// allocates. The cursor keeps each op's last access inline, to add the
// streams' differences to, so a copy of a cursor walks on independently.
// A cursor only reads the trace, and any number may walk one trace
// concurrently. Declare the cursor outside the loop statement: a variable
// declared in it is copied on every iteration.
type Cursor struct {
	ops       []uint8
	pay, regs []byte
	table     []entry
	whole     []Record
	i         int
	// p and g index the next bytes of pay and regs, w the next record
	// kept whole.
	p, g, w int
	// hist is the branch history before record i+1.
	hist uint16
	rec  Record
	last [256]last
}

// Cursor returns a cursor positioned before the first record.
func (t *Trace) Cursor() Cursor {
	return Cursor{ops: t.ops, pay: t.pay, regs: t.regs, table: t.table, whole: t.whole, i: -1}
}

// Next advances to the next record and reports whether there was one.
func (c *Cursor) Next() bool {
	if c.i+1 >= len(c.ops) {
		c.i = len(c.ops)
		return false
	}
	c.i++
	b := c.ops[c.i]
	r := &c.rec
	if b >= escLoad {
		*r = c.whole[c.w]
		c.w++
		r.BranchHist = c.hist
		if r.Kind == KindBranch {
			c.hist = foldBranch(c.hist, r.Taken)
		}
		return true
	}
	// Field by field: building a whole Record and copying it in stalls
	// on store forwarding, several times the cost of the walk itself.
	e := &c.table[b]
	r.PC, r.Count, r.Dep = e.pc, e.count, NoDep
	if !e.noDep {
		r.Dep = int32(c.i) - e.dist
	}
	r.Kind, r.Size, r.Taken, r.BranchHist = e.kind, e.size, e.taken, c.hist
	r.Addr, r.Value, r.Reg, r.Hints = 0, 0, 0, e.hints
	switch e.kind {
	case KindLoad, KindStore:
		l := &c.last[b]
		da, p := diff(c.pay, c.p)
		dv, p := diff(c.pay, p)
		c.p = p
		l.addr += da
		l.value += dv
		if c.regs != nil {
			var d uint64
			d, c.g = diff(c.regs, c.g)
			l.reg += d
		}
		r.Addr, r.Value, r.Reg = memmodel.Addr(l.addr), l.value, l.reg
	case KindBranch:
		c.hist = foldBranch(c.hist, e.taken)
	}
	return true
}

// diff returns the difference coded at s[k] and the index after it.
// Written as a loop, it stays within the inlining budget, so the cursor
// decodes without a call; masking the shift drops the compiler's
// out-of-range check from each byte.
func diff(s []byte, k int) (uint64, int) {
	var x uint64
	for sh := uint(0); ; sh += 7 {
		b := s[k]
		k++
		x |= uint64(b&0x7f) << (sh & 63)
		if b < 0x80 {
			return x>>1 ^ -(x & 1), k
		}
	}
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
