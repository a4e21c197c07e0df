// Package trace defines the instruction/memory trace format that connects
// workload generators to the timing simulator, together with an emitter API,
// compact in-memory storage read through a Cursor, and a compact binary
// codec.
//
// The paper drives gem5 with x86 binaries whose memory instructions are
// preceded by compiler-injected NOPs carrying semantic hints. Here the
// equivalent information travels in the trace itself: each Record carries
// the hardware-visible attributes (PC, branch outcome, register operand,
// loaded value) and the compiler attributes (object type, link offset, form
// of reference) that the context prefetcher consumes (Table 1 of the paper).
package trace

import (
	"fmt"

	"semloc/internal/memmodel"
)

// Kind discriminates trace records.
type Kind uint8

// Record kinds.
const (
	// KindCompute represents Count back-to-back non-memory instructions.
	KindCompute Kind = iota
	// KindLoad is a data load of Size bytes at Addr.
	KindLoad
	// KindStore is a data store of Size bytes at Addr.
	KindStore
	// KindBranch is a conditional branch with outcome Taken.
	KindBranch
	// KindWarmupEnd marks the end of the warm-up phase; statistics reset
	// here so measurements cover steady state (the paper's SimPoint-style
	// phase selection).
	KindWarmupEnd
	kindCount
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCompute:
		return "compute"
	case KindLoad:
		return "load"
	case KindStore:
		return "store"
	case KindBranch:
		return "branch"
	case KindWarmupEnd:
		return "warmup-end"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// RefForm encodes the syntactic form of a memory reference, one of the
// compiler-injected attributes of Table 1 ("pointer dereference operator
// ('.', '->' or '*'), array index, etc.").
type RefForm uint8

// Reference forms.
const (
	RefNone  RefForm = iota // no hint / non-pointer access
	RefDeref                // *p
	RefArrow                // p->field
	RefDot                  // s.field
	RefIndex                // a[i]
	refFormCount
)

// String implements fmt.Stringer.
func (r RefForm) String() string {
	switch r {
	case RefNone:
		return "none"
	case RefDeref:
		return "deref"
	case RefArrow:
		return "arrow"
	case RefDot:
		return "dot"
	case RefIndex:
		return "index"
	default:
		return fmt.Sprintf("ref(%d)", uint8(r))
	}
}

// SWHints carries the compiler-injected software attributes for one memory
// access. In the paper these are packed into a 32-bit immediate on an
// extended NOP preceding the memory instruction; the workload generators
// attach them directly (see DESIGN.md, substitution table).
type SWHints struct {
	// Valid reports whether the compiler emitted hints for this access.
	// The paper's pass only annotates accesses that load pointer-typed
	// values, so most plain array traffic has Valid == false.
	Valid bool
	// TypeID uniquely enumerates the object type being accessed within the
	// program (e.g. distinguishing graph edges from vertices).
	TypeID uint16
	// LinkOffset is the byte offset within the object of the pointer or
	// index used to reach the adjacent element.
	LinkOffset uint16
	// RefForm is the syntactic reference form.
	RefForm RefForm
}

// NoDep marks a memory record with no producing load.
const NoDep int32 = -1

// Record is one trace event, as a Cursor or Reader presents it.
//
// Dep carries the data dependency needed by the timing model: for a load or
// store whose address was computed from the value returned by an earlier
// load (pointer chasing), Dep holds the absolute trace index of that
// producer. The CPU model will not issue the access before the producer
// completes, which is what serializes misses on linked structures.
type Record struct {
	PC    uint64
	Addr  memmodel.Addr
	Value uint64 // value loaded/stored (e.g. the pointer read from a node)
	Reg   uint64 // relevant general-register operand (e.g. a search key)
	Dep   int32
	Count uint32 // KindCompute: number of ALU instructions represented
	Kind  Kind
	Size  uint8
	Taken bool
	Hints SWHints
	// BranchHist is derived, not stored: the global 16-bit history of the
	// branches before this record (newest outcome in bit 0), the paper's
	// branch-history attribute. Cursor and Reader fill it as they walk;
	// Emitter.Append ignores it.
	BranchHist uint16
}

// Instructions returns how many dynamic instructions the record represents.
func (r *Record) Instructions() uint64 {
	switch r.Kind {
	case KindCompute:
		return uint64(r.Count)
	case KindWarmupEnd:
		return 0
	default:
		return 1
	}
}

// IsMem reports whether the record is a data memory access.
func (r *Record) IsMem() bool { return r.Kind == KindLoad || r.Kind == KindStore }

// Stats summarizes a trace.
type Stats struct {
	Records      int
	Instructions uint64
	Loads        uint64
	Stores       uint64
	Branches     uint64
	Hinted       uint64 // memory records with valid SW hints
	Dependent    uint64 // loads whose address depends on an earlier load
	WarmupIndex  int    // record index of the warm-up marker (-1 if none)
}

// ComputeStats scans the trace once and summarizes it.
func (t *Trace) ComputeStats() Stats {
	s := Stats{Records: t.Len(), WarmupIndex: -1}
	c := t.Cursor()
	for c.Next() {
		r := c.Record()
		s.Instructions += r.Instructions()
		switch r.Kind {
		case KindLoad:
			s.Loads++
		case KindStore:
			s.Stores++
		case KindBranch:
			s.Branches++
		case KindWarmupEnd:
			if s.WarmupIndex < 0 {
				s.WarmupIndex = c.Index()
			}
		}
		if r.IsMem() {
			if r.Hints.Valid {
				s.Hinted++
			}
			if r.Kind == KindLoad && r.Dep != NoDep {
				s.Dependent++
			}
		}
	}
	return s
}

// Validate checks structural invariants: dependency indices must point
// backwards at loads, kinds must be known, and compute counts non-zero.
func (t *Trace) Validate() error {
	c := t.Cursor()
	for c.Next() {
		i, r := c.Index(), c.Record()
		if r.Kind >= kindCount {
			return fmt.Errorf("trace %q: record %d has unknown kind %d", t.Name, i, r.Kind)
		}
		if r.Kind == KindCompute && r.Count == 0 {
			return fmt.Errorf("trace %q: record %d is a zero-count compute block", t.Name, i)
		}
		if r.IsMem() {
			if r.Dep != NoDep {
				if r.Dep < 0 || int(r.Dep) >= i {
					return fmt.Errorf("trace %q: record %d dep %d out of range", t.Name, i, r.Dep)
				}
				if t.ops[r.Dep].kind != KindLoad {
					return fmt.Errorf("trace %q: record %d depends on non-load %d", t.Name, i, r.Dep)
				}
			}
			if r.Size == 0 {
				return fmt.Errorf("trace %q: record %d memory access of size 0", t.Name, i)
			}
			if r.Hints.Valid && r.Hints.RefForm >= refFormCount {
				return fmt.Errorf("trace %q: record %d invalid ref form %d", t.Name, i, r.Hints.RefForm)
			}
		}
	}
	return nil
}
