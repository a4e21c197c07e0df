package trace

import (
	"bytes"
	"testing"

	"semloc/internal/memmodel"
)

func memmodelAddr(i int) memmodel.Addr { return memmodel.Addr(i) }

// benchTrace builds a representative trace: pointer loads with hints,
// values and dependencies, interleaved branches and compute blocks.
func benchTrace(records int) *Trace {
	e := NewEmitter("bench")
	dep := -1
	for i := 0; i < records/4; i++ {
		e.Compute(3)
		e.Branch(0x400+uint64(i%7)*4, i%3 == 0)
		addr := memmodelAddr(0x10000 + (i*832)%(1<<20))
		dep = e.LoadSpec(MemSpec{
			PC: 0x500, Addr: addr, Value: uint64(addr) + 64, Dep: dep,
			Hints: SWHints{Valid: true, TypeID: 2, LinkOffset: 8, RefForm: RefArrow},
		})
		e.Load(0x510, addr+8)
	}
	return e.Finish()
}

// decodeLoop times the streaming decode of data (Reader.Reset + Next over
// every record): steady state must not allocate per record (DESIGN.md,
// "Hot path & benchmarking").
func decodeLoop(b *testing.B, data []byte, records int) {
	var (
		r   Reader
		rec Record
		src bytes.Reader
	)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reset(data)
		if err := r.Reset(&src); err != nil {
			b.Fatal(err)
		}
		n := 0
		for ; r.Next(&rec) == nil; n++ {
		}
		if n != records {
			b.Fatalf("decoded %d records, want %d", n, records)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	tr := benchTrace(40000)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		b.Fatal(err)
	}
	decodeLoop(b, buf.Bytes(), tr.Len())
}

// BenchmarkDecodeGzip is BenchmarkDecode over a gzip-compressed stream,
// exercising inflater reuse.
func BenchmarkDecodeGzip(b *testing.B) {
	tr := benchTrace(40000)
	var buf bytes.Buffer
	if err := WriteGzip(&buf, tr); err != nil {
		b.Fatal(err)
	}
	decodeLoop(b, buf.Bytes(), tr.Len())
}

// BenchmarkCursor measures one pass of a Cursor over a trace, the walk
// every consumer (the CPU model first) pays per record.
func BenchmarkCursor(b *testing.B) {
	tr := benchTrace(40000)
	b.ReportAllocs()
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		c := tr.Cursor()
		for c.Next() {
			sum += c.Record().PC
		}
	}
	benchSink = sum
}

var benchSink uint64
