package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"semloc/internal/memmodel"
)

// FuzzReader proves Read never panics on arbitrary bytes: every malformed
// input must surface as an error. Every trace it accepts must be one the
// store could hold: written back, it reads back deeply equal, and rebuilt
// record by record through Append it keeps its checksum, its Accesses and
// its dependency reach, which agrees with ComputeStats. A seed corpus is
// checked in under testdata/fuzz/FuzzReader.
func FuzzReader(f *testing.F) {
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
	f.Add(plain.Bytes()[:len(plain.Bytes())/2])
	f.Add([]byte("SLTR"))
	f.Add([]byte{0x1f, 0x8b})
	f.Add([]byte{})
	f.Add(header("", 1<<62)) // a section length past the cap over no sections
	corrupted := append([]byte(nil), plain.Bytes()...)
	corrupted[7] ^= 0x40
	corrupted[11] ^= 0x08
	f.Add(corrupted)
	corrupted = append([]byte(nil), plain.Bytes()...)
	corrupted[8] ^= 0xff
	f.Add(corrupted)

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatalf("writing back a trace Read accepted: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("reading back a trace Read accepted: %v", err)
		}
		if !reflect.DeepEqual(back, tr) {
			sameRecords(t, back, tr)
			t.Fatal("written back, the trace reads back with other storage")
		}
		rebuilt := fromRecords(tr.Name, records(tr)...)
		if rebuilt.checksum() != tr.checksum() {
			sameRecords(t, rebuilt, tr)
			t.Fatalf("checksum %#x rebuilt through Append as %#x", tr.checksum(), rebuilt.checksum())
		}
		if rebuilt.Accesses() != tr.Accesses() || rebuilt.DepReach() != tr.DepReach() ||
			tr.DepReach() != tr.ComputeStats().DepReach {
			t.Fatalf("accesses %d, dependency reach %d; rebuilt %d, %d; ComputeStats reach %d",
				tr.Accesses(), tr.DepReach(), rebuilt.Accesses(), rebuilt.DepReach(), tr.ComputeStats().DepReach)
		}
	})
}

// FuzzRead proves Read hands out only sound traces: on arbitrary bytes it
// returns an error or a trace that Validate accepts, so no caller walks a
// dependency index past its record. Its seeds are whole traces, plain and
// gzip, and their damage; testdata/fuzz/FuzzRead holds two inputs with a
// version-1 header.
func FuzzRead(f *testing.F) {
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
	bad[8] ^= 0xff
	f.Add(bad)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("Read accepted a trace Validate refuses: %v", err)
		}
	})
}

// FuzzAppend drives an Emitter with the calls the fuzz bytes spell:
// Append with any kind, size, flags, 64-bit PC, Addr, Value and Reg, hints,
// Dep and Count, plus Compute, LoadSpec and Branch, and bursts of records
// that each bring a new op — a load with a new shape, a branch with a new
// PC, a compute block with a new count (every other one merged from two
// calls), or a load with a new dependency distance — which fill the op
// table in a few bytes. A cursor must read back each record as emitted,
// with Append's documented drops applied, and Len must count each as it
// comes (the model in store_test.go). Every trace Validate accepts must
// also come back from Write→Read deeply equal: the file holds the store
// as it is. This reaches the kinds, sizes, table overflows and wide
// values that FuzzReader's decodable inputs seldom carry.
func FuzzAppend(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 8, 3, 2, 0x20, 0x04, 4, 0, 0, 0, 1, 1, 0x2a, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 99, 3, 1, 8, 1, 2, 3, 4, 5, 6, 7, 8, 1, 9, 1, 9, 1, 9, 1, 2, 1, 3, 1, 4, 1, 5, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 5, 1, 3, 2, 1, 0x40, 8, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 3, 1, 7, 1})
	// Bursts of 300 new ops of each sort, past the 254-entry op table,
	// with records that fit after them.
	f.Add([]byte{4, 1, 0xff, 0xff, 4, 1, 0x10, 0, 2, 0, 8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{4, 0, 0x2c, 1, 0, 1, 7, 0, 0, 3, 2, 1, 1, 0, 1, 1})
	f.Add([]byte{4, 2, 0x2c, 1, 1, 3, 3, 1, 0x40, 1, 1, 4, 2, 0x2c, 1})
	f.Add([]byte{4, 3, 0x2c, 1, 2, 8, 0, 1, 0x40, 1, 0x80, 0, 0, 1, 0, 1, 2, 4, 3, 8, 0})
	// 64-bit Addr, Value and Reg on one op, whose differences wrap modulo
	// 2^64: 2^64−1, then 0, then alternating extremes, through LoadSpec
	// and through Append.
	extremes := []uint64{math.MaxUint64, 0, 1 << 63, 0, math.MaxUint64, 1 << 63, 1, math.MaxUint64 - 1}
	var loads, stores []byte
	for i, v := range extremes {
		loads = append(loads, 2, 8, 0, 1, 0x40) // LoadSpec: size, flags, PC
		for _, w := range []uint64{v, ^v, extremes[len(extremes)-1-i]} {
			loads = append(append(loads, 8), binary.LittleEndian.AppendUint64(nil, w)...) // Addr, Value, Reg
		}
		loads = append(loads, 0, 0, 0, 8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff) // hints, Dep −1
		stores = append(stores, 0, byte(KindStore), 8, 0, 1, 0x44)                        // Append: kind, size, flags, PC
		for _, w := range []uint64{^v, v, v} {
			stores = append(append(stores, 8), binary.LittleEndian.AppendUint64(nil, w)...)
		}
		stores = append(stores, 0, 0, 0, 4, 0xff, 0xff, 0xff, 0xff, 0) // hints, Dep NoDep, Count
	}
	f.Add(loads)
	f.Add(stores)
	f.Add(append(append([]byte(nil), stores...), loads...))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		m := newModel("fuzz")
		fresh := uint64(1) << 48 // PCs and type IDs no other call can spell
		// Repeated bursts could spell millions of records; past 2^16 an
		// input reaches nothing new, only time and memory.
		for len(in) > 0 && len(m.recs) < 1<<16 {
			switch in.u8() % 5 {
			case 0:
				kind, size, flags := Kind(in.u8()), in.u8(), in.u8()
				m.append(Record{Kind: kind, Size: size, Taken: flags&1 != 0,
					PC: in.u64(), Addr: memmodel.Addr(in.u64()), Value: in.u64(), Reg: in.u64(),
					Hints: in.hints(flags&2 != 0), Dep: int32(in.u64()), Count: uint32(in.u64())})
			case 1:
				m.compute(int(int8(in.u8())))
			case 2:
				size, flags := in.u8(), in.u8()
				m.load(&MemSpec{Size: size, PC: in.u64(), Addr: memmodel.Addr(in.u64()), Value: in.u64(), Reg: in.u64(),
					Hints: in.hints(flags&2 != 0), Dep: int(int64(in.u64()))})
			case 3:
				m.branch(in.u64(), in.u8()&1 != 0)
			case 4:
				sort, n := in.u8()%4, int(in.u8())|int(in.u8())<<8
				producer := m.load(&MemSpec{PC: 0x44, Addr: 0x2000, Dep: -1})
				for j := 0; j < n; j++ {
					fresh++
					switch sort {
					case 0:
						m.load(&MemSpec{PC: 0x40, Addr: 0x1000, Dep: -1, Hints: SWHints{Valid: true, TypeID: uint16(fresh)}})
					case 1:
						m.branch(fresh, j&1 == 0)
					case 2:
						m.compute(int(uint32(fresh)))
						if j&1 == 0 {
							m.branch(0x48, true)
						}
					case 3:
						m.load(&MemSpec{PC: 0x40, Addr: 0x1000, Dep: producer})
					}
				}
			}
		}
		tr := m.finish(t)
		if tr.Validate() != nil {
			return // not a trace the codec need carry
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatalf("encoding a valid trace: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("decoding a valid trace: %v", err)
		}
		if !reflect.DeepEqual(back, tr) {
			sameRecords(t, back, tr)
			t.Fatal("written, the trace reads back with other storage")
		}
	})
}

// fuzzBytes hands out fuzz input a field at a time, reading zeros past its
// end.
type fuzzBytes []byte

func (b *fuzzBytes) u8() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

// u64 reads a length byte, then that many bytes (at most 8) little-endian,
// so small values cost few bytes and wide ones stay reachable.
func (b *fuzzBytes) u64() uint64 {
	var v uint64
	for i, n := 0, int(b.u8()%9); i < n; i++ {
		v |= uint64(b.u8()) << (8 * i)
	}
	return v
}

// hints reads a type ID, a link offset and a reference form.
func (b *fuzzBytes) hints(valid bool) SWHints {
	return SWHints{Valid: valid, TypeID: uint16(b.u64()), LinkOffset: uint16(b.u64()), RefForm: RefForm(b.u8())}
}
