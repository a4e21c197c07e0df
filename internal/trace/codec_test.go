package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"strings"
	"testing"
)

func TestGzipRoundTrip(t *testing.T) {
	orig := sampleTrace()
	var buf bytes.Buffer
	if err := WriteGzip(&buf, orig); err != nil {
		t.Fatal(err)
	}
	// Compressed stream must be transparently handled by Read.
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, got, orig)
}

func TestGzipSmallerForRepetitiveTraces(t *testing.T) {
	e := NewEmitter("rep")
	for i := 0; i < 10000; i++ {
		e.Load(0x400, 0x10000)
		e.Compute(3)
	}
	tr := e.Finish()
	var plain, gz bytes.Buffer
	if err := Write(&plain, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteGzip(&gz, tr); err != nil {
		t.Fatal(err)
	}
	if gz.Len() >= plain.Len() {
		t.Errorf("gzip (%d) not smaller than plain (%d)", gz.Len(), plain.Len())
	}
}

func TestReaderTruncatedGzip(t *testing.T) {
	orig := sampleTrace()
	var buf bytes.Buffer
	if err := WriteGzip(&buf, orig); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	_, err := Read(bytes.NewReader(data[:len(data)/2]))
	if err == nil {
		t.Error("expected error for truncated gzip stream")
	}
}

func TestReaderCorruptGzipBody(t *testing.T) {
	orig := sampleTrace()
	var buf bytes.Buffer
	if err := WriteGzip(&buf, orig); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Corrupt the deflate body (past the 10-byte gzip header) at several
	// offsets; each must decode to an error, never a panic. A flip can in
	// principle land in slack bits and still decode — the trace must then
	// at least be structurally valid.
	errored := 0
	for _, off := range []int{10, 12, len(data) / 2, len(data) - 5} {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0xff
		tr, err := Read(bytes.NewReader(mut))
		if err != nil {
			errored++
			continue
		}
		if verr := tr.Validate(); verr != nil {
			t.Errorf("offset %d: corrupt gzip decoded into invalid trace: %v", off, verr)
		}
	}
	if errored == 0 {
		t.Error("no corrupted gzip body produced a decode error")
	}
}

func TestEmptyTraceRoundTrip(t *testing.T) {
	empty := &Trace{Name: "empty"}
	for _, compress := range []bool{false, true} {
		var buf bytes.Buffer
		var err error
		if compress {
			err = WriteGzip(&buf, empty)
		} else {
			err = Write(&buf, empty)
		}
		if err != nil {
			t.Fatal(err)
		}
		got, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("gzip=%v: %v", compress, err)
		}
		if got.Name != "empty" || got.Len() != 0 {
			t.Errorf("gzip=%v: round trip = %q/%d records", compress, got.Name, got.Len())
		}
	}
}

// header returns a version-2 header with the given name, an empty table,
// and then an op-bytes length of n.
func header(name string, n uint64) []byte {
	h := append([]byte{'S', 'L', 'T', 'R', version, byte(len(name))}, name...)
	return binary.AppendUvarint(append(h, 0), n)
}

// noRead fails the test when it is read.
type noRead struct{ t *testing.T }

func (r noRead) Read([]byte) (int, error) {
	r.t.Error("read past a forged section length")
	return 0, io.EOF
}

// TestHeaderCountLimit pins what a forged section length costs: one just
// under the cap, over a 32-byte input, fails at the end of the input
// having allocated under 1 MiB; one that takes the trace past the cap, by
// itself or with the name before it, fails before anything after it is
// read.
func TestHeaderCountLimit(t *testing.T) {
	in := header("", maxTraceBytes-1)
	in = append(in, make([]byte, 32-len(in))...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), io.ErrUnexpectedEOF.Error()) {
		t.Errorf("length %d over 32 bytes: %v, want %v", maxTraceBytes-1, err, io.ErrUnexpectedEOF)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("length %d over 32 bytes allocated %d bytes", maxTraceBytes-1, n)
	}
	for _, in := range [][]byte{header("", maxTraceBytes+1), header("", 1<<62), header("name", maxTraceBytes-3)} {
		_, err := Read(io.MultiReader(bytes.NewReader(in), noRead{t}))
		if err == nil || !strings.HasPrefix(err.Error(), "trace: op bytes length") {
			t.Errorf("header %q: %v, want an op bytes length error", in, err)
		}
	}
}

// TestReadChecks mutates a written trace to break each check Read makes
// before a cursor walks it. Each must fail with its own error, never a
// panic. The sample trace's records are a compute block, a hinted load, a
// branch, a load on the first, a warm-up marker, a store and a compute
// block, each with its own table entry; its payload stream holds their
// 6 Addr and Value differences, the last a one-byte 0, and its Reg stream
// 3 differences.
func TestReadChecks(t *testing.T) {
	const (
		branch = 2 // the branch's record index and op byte
		// flags is the offset of the first entry's flags: after the magic,
		// the version, the name and the table length, and the entry's kind.
		flags = len(magic) + 2 + len("sample") + 2
	)
	for _, tc := range []struct {
		name  string
		store func(*Trace)          // mutates the trace before Write
		file  func(b []byte) []byte // mutates the file after it
		want  string
	}{
		{"op byte past the table", func(t *Trace) { t.ops[branch] = 7 }, nil, "op byte 7 past the 7-entry table"},
		{"escape without a record kept whole", func(t *Trace) { t.ops[branch] = escOther }, nil,
			"record 2 escapes, but only 0 records are kept whole"},
		{"record kept whole without an escape", func(t *Trace) {
			t.whole = append(t.whole, Record{Kind: KindBranch, Dep: NoDep})
		}, nil, "1 records kept whole for 0 escapes"},
		{"254 over a non-load", func(t *Trace) {
			t.ops[branch] = escLoad
			t.whole = append(t.whole, Record{Kind: KindBranch, PC: 0x408, Taken: true, Dep: NoDep})
		}, nil, "escape byte 254 over a branch"},
		{"payload one varint short", func(t *Trace) { t.pay = t.pay[:len(t.pay)-1] }, nil,
			"payload stream: varint 5 of 6 missing"},
		{"payload one byte over", func(t *Trace) { t.pay = append(t.pay, 0) }, nil,
			"payload stream: 1 bytes past its 6 varints"},
		{"11-byte varint", func(t *Trace) { t.pay = append(bytes.Repeat([]byte{0x80}, 10), t.pay...) }, nil,
			"payload stream: varint 0 of 6 missing or over 10 bytes"},
		{"Reg stream one varint short", func(t *Trace) { t.regs = t.regs[:len(t.regs)-1] }, nil,
			"Reg stream: varint 2 of 3 missing"},
		{"Reg stream one byte over", func(t *Trace) { t.regs = append(t.regs, 0) }, nil,
			"Reg stream: 1 bytes past its 3 varints"},
		{"255 table entries", func(t *Trace) { t.table = append(t.table, make([]entry, 255-len(t.table))...) }, nil,
			"table length 255 out of range"},
		{"branch entry with a Dep", func(t *Trace) { e := &t.table[branch]; e.noDep, e.dist = false, 1 }, nil,
			"table entry of kind branch carries a field Append drops"},
		{"branch entry with a Size", func(t *Trace) { t.table[branch].size = 4 }, nil,
			"table entry of kind branch carries a field Append drops"},
		{"load kept whole with a Count", func(t *Trace) {
			t.whole = append(t.whole, Record{Kind: KindLoad, PC: 0x408, Size: 8, Count: 3, Dep: NoDep})
		}, nil, "record kept whole of kind load carries a field Append drops"},
		{"unknown flags", nil, func(b []byte) []byte { b[flags] = 8; return b }, "table entry flags 8 out of range, at most 7"},
		{"version 1", nil, func(b []byte) []byte { b[4] = 1; return b }, "unsupported version 1"},
		{"a byte after the trace", nil, func(b []byte) []byte { return append(b, 0) }, "bytes after the records kept whole"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := sampleTrace()
			if tc.store != nil {
				tc.store(tr)
			}
			var buf bytes.Buffer
			if err := Write(&buf, tr); err != nil {
				t.Fatal(err)
			}
			b := buf.Bytes()
			if tc.file != nil {
				b = tc.file(b)
			}
			_, err := Read(bytes.NewReader(b))
			if err == nil || !strings.HasPrefix(err.Error(), "trace: ") || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Read: %v, want a trace: error containing %q", err, tc.want)
			}
		})
	}
}

func TestReaderRejectsGarbageAfterGzipMagic(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte{0x1f, 0x8b, 0x00, 0x01})); err == nil {
		t.Error("expected error for bogus gzip stream")
	}
}
