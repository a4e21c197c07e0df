package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

func TestStreamingReaderMatchesRead(t *testing.T) {
	orig := sampleTrace()
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	sr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Name() != orig.Name {
		t.Errorf("Name = %q, want %q", sr.Name(), orig.Name)
	}
	if sr.Len() != orig.Len() {
		t.Errorf("Len = %d, want %d", sr.Len(), orig.Len())
	}
	var rec Record
	c := orig.Cursor()
	for c.Next() {
		if err := sr.Next(&rec); err != nil {
			t.Fatalf("Next(%d): %v", c.Index(), err)
		}
		if rec != *c.Record() {
			t.Fatalf("record %d: got %+v want %+v", c.Index(), rec, *c.Record())
		}
	}
	if err := sr.Next(&rec); err != io.EOF {
		t.Errorf("Next after end = %v, want io.EOF", err)
	}
	if err := sr.Next(&rec); err != io.EOF {
		t.Errorf("repeated Next after end = %v, want io.EOF", err)
	}
}

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
		sr, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("gzip=%v: NewReader: %v", compress, err)
		}
		var rec Record
		if err := sr.Next(&rec); err != io.EOF {
			t.Errorf("gzip=%v: Next on empty trace = %v, want io.EOF", compress, err)
		}
	}
}

// header builds a syntactically valid trace header claiming count records.
func header(count uint64) []byte {
	h := []byte("SLTR\x01\x00") // magic, version 1, empty name
	return binary.AppendUvarint(h, count)
}

func TestHeaderCountLimit(t *testing.T) {
	if _, err := NewReader(bytes.NewReader(header(1 << 62))); err == nil {
		t.Error("expected error for header count 1<<62")
	}
	if _, err := NewReader(bytes.NewReader(header(MaxTraceBytes/2 + 1))); err == nil {
		t.Error("expected error for header count just past the byte limit")
	}
	if _, err := NewReader(bytes.NewReader(header(100))); err != nil {
		t.Errorf("reasonable header rejected: %v", err)
	}
}

func TestMaxTraceBytesConfigurable(t *testing.T) {
	orig := MaxTraceBytes
	defer func() { MaxTraceBytes = orig }()
	MaxTraceBytes = 8
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if _, err := NewReader(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("expected a tightened MaxTraceBytes to reject the sample trace header")
	}
}

func TestReaderRejectsGarbageAfterGzipMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte{0x1f, 0x8b, 0x00, 0x01})); err == nil {
		t.Error("expected error for bogus gzip stream")
	}
}

func FuzzRead(f *testing.F) {
	// Seed with valid plain and gzip traces plus a few corruptions.
	orig := sampleTrace()
	var plain, gz bytes.Buffer
	if err := Write(&plain, orig); err != nil {
		f.Fatal(err)
	}
	if err := WriteGzip(&gz, orig); err != nil {
		f.Fatal(err)
	}
	f.Add(plain.Bytes())
	f.Add(gz.Bytes())
	f.Add([]byte("SLTR"))
	f.Add([]byte{})
	bad := append([]byte(nil), plain.Bytes()...)
	if len(bad) > 10 {
		bad[8] ^= 0xff
	}
	f.Add(bad)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic; on success the trace must validate
		// structurally sound dep indices.
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("decoded trace fails validation: %v", err)
		}
	})
}
