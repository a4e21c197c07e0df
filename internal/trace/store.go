package trace

import "semloc/internal/memmodel"

// Trace is a complete generated trace plus its metadata. Its records are
// stored compactly and read in order through a Cursor; an Emitter builds
// one.
//
// Every record keeps one 16-byte op, and each load or store also one
// 32-byte payload, both arrays allocated at their exact length, so compute
// and branch records carry no address, value, register or hint bytes.
type Trace struct {
	// Name identifies the workload (Table 3 naming).
	Name string
	// ops holds one entry per record; Dep indices refer into it.
	ops []op
	// accs holds the payload of each load and store, in record order.
	accs []payload
}

// op is the part of a record every kind has.
type op struct {
	pc uint64
	// arg is Count for KindCompute and uint32(Dep) for every other kind.
	arg   uint32
	kind  Kind
	taken bool
	size  uint8
}

// noDepArg is NoDep as an op arg.
const noDepArg = ^uint32(0)

// payload is the rest of a load or store record.
type payload struct {
	addr  memmodel.Addr
	value uint64
	reg   uint64
	hints SWHints
}

// Len returns the number of records.
func (t *Trace) Len() int { return len(t.ops) }

// Accesses returns the number of loads and stores.
func (t *Trace) Accesses() int { return len(t.accs) }

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
	ops  []op
	accs []payload
	i    int
	// acc is the payload index of the next load or store.
	acc int
	// hist is the branch history before record i+1.
	hist uint16
	rec  Record
}

// Cursor returns a cursor positioned before the first record.
func (t *Trace) Cursor() Cursor {
	return Cursor{ops: t.ops, accs: t.accs, i: -1}
}

// Next advances to the next record and reports whether there was one.
func (c *Cursor) Next() bool {
	if c.i+1 >= len(c.ops) {
		c.i = len(c.ops)
		return false
	}
	c.i++
	o := &c.ops[c.i]
	// Field by field: building a whole Record and copying it in stalls
	// on store forwarding, several times the cost of the walk itself.
	r := &c.rec
	r.PC, r.Count, r.Dep = o.pc, 0, int32(o.arg)
	r.Kind, r.Size, r.Taken, r.BranchHist = o.kind, o.size, o.taken, c.hist
	var p payload
	switch o.kind {
	case KindCompute:
		r.Count, r.Dep = o.arg, NoDep
	case KindLoad, KindStore:
		p = c.accs[c.acc]
		c.acc++
	case KindBranch:
		c.hist = foldBranch(c.hist, o.taken)
	}
	r.Addr, r.Value, r.Reg, r.Hints = p.addr, p.value, p.reg, p.hints
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
