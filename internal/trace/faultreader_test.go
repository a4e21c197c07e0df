package trace

import (
	"bytes"
	"io"
	"testing"

	"semloc/internal/memmodel"
)

// FaultConfig configures deterministic fault injection on a byte stream.
// All faults are driven by Seed, so a failing corruption pattern can be
// replayed exactly; the stream of injected faults is deterministic for a
// fixed consumer (read sizes feed the PRNG cursor).
type FaultConfig struct {
	// Seed drives the injected faults. Zero is remapped to 1 (see
	// memmodel.NewRNG), so the zero value still injects deterministically.
	Seed uint64
	// BitFlipRate is the per-byte probability of flipping one
	// pseudo-randomly chosen bit. Zero disables bit flips.
	BitFlipRate float64
	// TruncateAt, when positive, ends the stream with io.EOF after that
	// many bytes, simulating a partially written or cut-off trace file.
	TruncateAt int64
	// ShortReads serves each Read with a pseudo-random prefix of the
	// requested length (at least one byte), exercising every partial-read
	// path in Read.
	ShortReads bool
}

// FaultReader wraps an io.Reader and injects truncation, bit flips and
// short reads per its FaultConfig. It is the test double for damaged trace
// files: Read must turn every injected fault into an error (or a clean
// decode when a fault lands harmlessly), never a panic.
type FaultReader struct {
	r   io.Reader
	cfg FaultConfig
	rng *memmodel.RNG
	off int64
}

// NewFaultReader wraps r with deterministic fault injection.
func NewFaultReader(r io.Reader, cfg FaultConfig) *FaultReader {
	return &FaultReader{r: r, cfg: cfg, rng: memmodel.NewRNG(cfg.Seed)}
}

// Read implements io.Reader.
func (f *FaultReader) Read(p []byte) (int, error) {
	if f.cfg.TruncateAt > 0 {
		if f.off >= f.cfg.TruncateAt {
			return 0, io.EOF
		}
		if remain := f.cfg.TruncateAt - f.off; int64(len(p)) > remain {
			p = p[:remain]
		}
	}
	if f.cfg.ShortReads && len(p) > 1 {
		p = p[:1+f.rng.Intn(len(p))]
	}
	n, err := f.r.Read(p)
	if f.cfg.BitFlipRate > 0 {
		for i := 0; i < n; i++ {
			if f.rng.Float64() < f.cfg.BitFlipRate {
				p[i] ^= 1 << uint(f.rng.Intn(8))
			}
		}
	}
	f.off += int64(n)
	return n, err
}

// biggerTrace returns a trace large enough that mid-stream faults land in
// every section of its file.
func biggerTrace() *Trace {
	e := NewEmitter("fault-test")
	for i := 0; i < 200; i++ {
		e.Compute(3)
		j := e.LoadSpec(&MemSpec{PC: 0x400 + uint64(i), Addr: memmodel.Addr(0x10000 + i*64),
			Value: uint64(0x20000 + i), Reg: uint64(i), Dep: -1,
			Hints: SWHints{Valid: i%3 == 0, TypeID: uint16(i), LinkOffset: 8, RefForm: RefArrow}})
		e.Branch(0x800+uint64(i), i%2 == 0)
		e.LoadSpec(&MemSpec{PC: 0x900 + uint64(i), Addr: memmodel.Addr(0x20000 + i*64), Dep: j})
		e.Store(0xa00+uint64(i), memmodel.Addr(0x30000+i*64))
	}
	return e.Finish()
}

func TestFaultReaderDeterministic(t *testing.T) {
	src := make([]byte, 4096)
	for i := range src {
		src[i] = byte(i)
	}
	cfg := FaultConfig{Seed: 42, BitFlipRate: 0.05, ShortReads: true, TruncateAt: 3000}
	read := func() []byte {
		out, err := io.ReadAll(NewFaultReader(bytes.NewReader(src), cfg))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := read(), read()
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different fault streams")
	}
	if len(a) != 3000 {
		t.Errorf("truncation yielded %d bytes, want 3000", len(a))
	}
	if bytes.Equal(a, src[:3000]) {
		t.Error("bit-flip rate 0.05 flipped nothing over 3000 bytes")
	}
}

func TestFaultReaderShortReads(t *testing.T) {
	src := make([]byte, 1024)
	fr := NewFaultReader(bytes.NewReader(src), FaultConfig{Seed: 7, ShortReads: true})
	buf := make([]byte, 512)
	sawShort := false
	for {
		n, err := fr.Read(buf)
		if n > 0 && n < len(buf) {
			sawShort = true
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !sawShort {
		t.Error("ShortReads never returned a partial read")
	}
}

// TestFaultInjectionNeverPanics is the acceptance table test: 10k seeded
// fault-injected / random byte streams through Read must produce only
// errors (or clean decodes when a fault lands harmlessly) and zero panics.
func TestFaultInjectionNeverPanics(t *testing.T) {
	tr := biggerTrace()
	var plain, gz bytes.Buffer
	if err := Write(&plain, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteGzip(&gz, tr); err != nil {
		t.Fatal(err)
	}

	const streams = 10000
	var failed, clean int
	for seed := uint64(1); seed <= streams; seed++ {
		pick := memmodel.NewRNG(seed)
		var data []byte
		var cfg FaultConfig
		switch seed % 4 {
		case 0:
			// Pure random bytes: no structure at all.
			data = make([]byte, pick.Intn(512))
			for i := range data {
				data[i] = byte(pick.Uint64())
			}
			cfg = FaultConfig{Seed: seed}
		case 1:
			data = plain.Bytes()
			cfg = FaultConfig{Seed: seed, BitFlipRate: 0.1 * pick.Float64(), ShortReads: pick.Intn(2) == 0}
		case 2:
			data = plain.Bytes()
			cfg = FaultConfig{Seed: seed, TruncateAt: 1 + int64(pick.Intn(plain.Len())), ShortReads: true}
		case 3:
			data = gz.Bytes()
			cfg = FaultConfig{Seed: seed, BitFlipRate: 0.02 * pick.Float64(),
				TruncateAt: 1 + int64(pick.Intn(gz.Len()))}
		}
		if _, err := Read(NewFaultReader(bytes.NewReader(data), cfg)); err != nil {
			failed++
		} else {
			clean++
		}
	}
	// Sanity-check the corpus actually exercised the error paths: the
	// overwhelming majority of corruptions must surface as errors.
	if failed < streams/2 {
		t.Errorf("only %d/%d corrupted streams errored — injector too weak", failed, streams)
	}
	t.Logf("fault injection: %d errored, %d decoded cleanly, 0 panics", failed, clean)
}
