package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"semloc/internal/memmodel"
)

// Binary trace format, version 2: a header, then the sections of the
// store (see Trace) as they lie in memory. Every number outside the
// sections' bytes is a uvarint.
//
//	header   "SLTR", the version, the name's length and bytes
//	table    the entry count, at most 254, then each entry as an op
//	ops      the length, then one op byte per record
//	payload  the length, then the payload stream
//	regs     the length, then the Reg stream; 0 when there is none
//	whole    the count, then each record kept whole as an op and its Addr,
//	         Value and Reg
//
// An op is a kind, flags (bit 0 taken, bit 1 hints valid, bit 2 has a
// dependency), PC, size and compute count; then, when flagged, the
// dependency modulo 2^32 — an entry's distance or a record's index, never
// 2^32−1, which would read as NoDep; then, when the hints are valid, the
// type ID, link offset and reference form.
const (
	magic   = "SLTR"
	version = 2
	// maxTraceBytes caps the sum of a file's section lengths, so a forged
	// length is refused before anything is read for it.
	maxTraceBytes = 2 << 30
)

const (
	flagTaken = 1 << iota
	flagHints
	flagDep
)

// Write serializes t to w. It refuses a record of an unknown kind, which
// Read would refuse.
func Write(w io.Writer, t *Trace) error {
	for _, r := range t.whole {
		if r.Kind >= kindCount {
			return fmt.Errorf("trace: cannot encode unknown kind %d", r.Kind)
		}
	}
	head := append(appendUvarints([]byte(magic), version, uint64(len(t.Name))), t.Name...)
	head = binary.AppendUvarint(head, uint64(len(t.table)))
	for _, e := range t.table {
		head = appendOp(head, Record{PC: e.pc, Count: e.count, Dep: e.dist, Kind: e.kind, Size: e.size,
			Taken: e.taken, Hints: e.hints}, !e.noDep)
	}
	tail := binary.AppendUvarint(nil, uint64(len(t.whole)))
	for _, r := range t.whole {
		tail = appendUvarints(appendOp(tail, r, r.Dep != NoDep), uint64(r.Addr), r.Value, r.Reg)
	}
	size := func(s []byte) []byte { return binary.AppendUvarint(nil, uint64(len(s))) }
	for _, b := range [][]byte{head, size(t.ops), t.ops, size(t.pay), t.pay, size(t.regs), t.regs, tail} {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// appendOp appends the op of r to b, with r.Dep as its dependency when dep
// is set.
func appendOp(b []byte, r Record, dep bool) []byte {
	var flags uint64
	for bit, on := range []bool{r.Taken, r.Hints.Valid, dep} { // flagTaken, flagHints, flagDep
		if on {
			flags |= 1 << bit
		}
	}
	b = appendUvarints(b, uint64(r.Kind), flags, r.PC, uint64(r.Size), uint64(r.Count))
	if dep {
		b = binary.AppendUvarint(b, uint64(uint32(r.Dep)))
	}
	if r.Hints.Valid {
		b = appendUvarints(b, uint64(r.Hints.TypeID), uint64(r.Hints.LinkOffset), uint64(r.Hints.RefForm))
	}
	return b
}

func appendUvarints(b []byte, vs ...uint64) []byte {
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// WriteGzip serializes t to w through gzip compression; Read decompresses
// transparently.
func WriteGzip(w io.Writer, t *Trace) error {
	gz := gzip.NewWriter(w)
	if err := Write(gz, t); err != nil {
		gz.Close()
		return err
	}
	return gz.Close()
}

// Read loads a trace written by Write, or by WriteGzip: it tells the two
// apart by the gzip magic. It checks the sections before any cursor walks
// them (see check), then runs Validate, so a damaged or forged file yields
// an error, never a panic. Each section is read as its bytes arrive, so a
// forged length costs no more memory than the input holds.
func Read(src io.Reader) (*Trace, error) {
	br := bufio.NewReader(src)
	if head, err := br.Peek(2); err == nil && head[0] == 0x1f && head[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("trace: opening gzip stream: %w", err)
		}
		br = bufio.NewReader(zr)
	}
	d := decoder{r: br}
	t := d.trace()
	if d.err != nil {
		return nil, d.err
	}
	if err := t.check(); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// decoder reads a trace file. Its first error sticks; reads after it
// return zero.
type decoder struct {
	r   *bufio.Reader
	err error
	// total sums the section lengths read so far.
	total uint64
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("trace: "+format, args...)
	}
}

// failRead records err from reading what; in a file, EOF is a truncation.
func (d *decoder) failRead(what string, err error) {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	d.fail("reading %s: %w", what, err)
}

// trace reads a whole file: the header, the sections, and the end of the
// input after them.
func (d *decoder) trace() *Trace {
	var m [len(magic)]byte
	if _, err := io.ReadFull(d.r, m[:]); err != nil {
		d.failRead("magic", err)
	} else if string(m[:]) != magic {
		d.fail("bad magic %q", m)
	}
	if v := d.uvarint("version", math.MaxUint64); d.err == nil && v != version {
		d.fail("unsupported version %d, want %d", v, version)
	}
	t := &Trace{Name: string(d.section("name"))}
	t.table = make([]entry, d.uvarint("table length", maxEntries))
	for i := range t.table {
		r := d.op("table entry", false)
		e := &t.table[i]
		*e = entry{pc: r.PC, hints: r.Hints, count: r.Count, kind: r.Kind, size: r.Size, taken: r.Taken, noDep: r.Dep == NoDep}
		if !e.noDep {
			e.dist = r.Dep
		}
	}
	t.ops, t.pay, t.regs = d.section("op bytes"), d.section("payload stream"), d.section("Reg stream")
	if len(t.regs) == 0 {
		t.regs = nil
	}
	// Each has an escape byte, and the list grows only as records arrive.
	for n := d.uvarint("records kept whole", uint64(len(t.ops))); n > 0 && d.err == nil; n-- {
		t.whole = append(t.whole, d.op("record kept whole", true))
	}
	t.whole = exact(t.whole)
	if d.err == nil {
		if _, err := d.r.ReadByte(); err == nil {
			d.fail("bytes after the records kept whole")
		} else if err != io.EOF {
			d.failRead("past the records kept whole", err)
		}
	}
	return t
}

// uvarint reads a uvarint of at most limit.
func (d *decoder) uvarint(what string, limit uint64) uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	switch {
	case err != nil:
		d.failRead(what, err)
	case v > limit:
		d.fail("%s %d out of range, at most %d", what, v, limit)
	default:
		return v
	}
	return 0
}

// section reads a length, then that many bytes, growing its buffer as they
// arrive. A length may not take the sum of the section lengths past
// maxTraceBytes.
func (d *decoder) section(what string) []byte {
	n := d.uvarint(what+" length", maxTraceBytes-d.total)
	d.total += n
	if d.err != nil {
		return nil
	}
	b := make([]byte, min(n, 1<<16))
	for k := 0; ; {
		if _, err := io.ReadFull(d.r, b[k:]); err != nil {
			d.failRead(what, err)
			return nil
		}
		if k = len(b); uint64(k) == n {
			return b
		}
		grown := make([]byte, min(n, 2*uint64(k)))
		copy(grown, b)
		b = grown
	}
}

// op reads an op, and for a record kept whole its Addr, Value and Reg
// after it, into a Record whose Dep holds the dependency as read: an
// entry's distance, a record's index, or NoDep. It fails when the op
// carries a field Append drops for its kind.
func (d *decoder) op(what string, whole bool) Record {
	r := Record{Kind: Kind(d.uvarint(what+" kind", math.MaxUint8)), Dep: NoDep}
	flags := d.uvarint(what+" flags", flagTaken|flagHints|flagDep)
	r.PC, r.Size = d.uvarint(what, math.MaxUint64), uint8(d.uvarint(what, math.MaxUint8))
	r.Count, r.Taken = uint32(d.uvarint(what, math.MaxUint32)), flags&flagTaken != 0
	if flags&flagDep != 0 {
		r.Dep = int32(d.uvarint(what+" dependency", math.MaxUint32-1))
	}
	if flags&flagHints != 0 {
		r.Hints = SWHints{Valid: true, TypeID: uint16(d.uvarint(what, math.MaxUint16)),
			LinkOffset: uint16(d.uvarint(what, math.MaxUint16)), RefForm: RefForm(d.uvarint(what, math.MaxUint8))}
	}
	if whole {
		r.Addr = memmodel.Addr(d.uvarint(what, math.MaxUint64))
		r.Value, r.Reg = d.uvarint(what, math.MaxUint64), d.uvarint(what, math.MaxUint64)
	}
	if kept(r) != r {
		d.fail("%s of kind %s carries a field Append drops", what, r.Kind)
	}
	return r
}

// check verifies the sections Read loaded before any cursor walks them:
// every op byte indexes the table or is an escape; escapes and records
// kept whole match one for one, 254 on exactly the loads; and the payload
// stream holds two varints for each access an op byte codes, and the Reg
// stream, when there is one, one, with no bytes left over. It derives
// Accesses and DepReach as the Emitter does.
func (t *Trace) check() error {
	coded, w := 0, 0
	reach := func(i int, dep int32) {
		if dep >= 0 && int(dep) < i {
			t.depReach = max(t.depReach, i-int(dep))
		}
	}
	for i, b := range t.ops {
		if b >= escLoad {
			if w == len(t.whole) {
				return fmt.Errorf("trace: record %d escapes, but only %d records are kept whole", i, w)
			}
			r := &t.whole[w]
			w++
			if (b == escLoad) != (r.Kind == KindLoad) {
				return fmt.Errorf("trace: record %d: escape byte %d over a %s", i, b, r.Kind)
			}
			if r.IsMem() {
				t.accesses++
				reach(i, r.Dep)
			}
			continue
		}
		if int(b) >= len(t.table) {
			return fmt.Errorf("trace: record %d: op byte %d past the %d-entry table", i, b, len(t.table))
		}
		if e := &t.table[b]; e.kind == KindLoad || e.kind == KindStore {
			coded++
			if !e.noDep {
				reach(i, int32(i)-e.dist)
			}
		}
	}
	if w != len(t.whole) {
		return fmt.Errorf("trace: %d records kept whole for %d escapes", len(t.whole), w)
	}
	t.accesses += coded
	if err := varints("payload", t.pay, 2*coded); err != nil || t.regs == nil {
		return err
	}
	return varints("Reg", t.regs, coded)
}

// varints checks that s holds exactly n varints.
func varints(what string, s []byte, n int) error {
	for k := 0; k < n; k++ {
		_, m := binary.Uvarint(s)
		if m <= 0 {
			return fmt.Errorf("trace: %s stream: varint %d of %d missing or over 10 bytes", what, k, n)
		}
		s = s[m:]
	}
	if len(s) > 0 {
		return fmt.Errorf("trace: %s stream: %d bytes past its %d varints", what, len(s), n)
	}
	return nil
}
