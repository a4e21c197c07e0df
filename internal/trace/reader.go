package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"

	"semloc/internal/memmodel"
)

// Reader streams records from a binary trace without materializing the
// whole trace, so multi-gigabyte traces can be replayed with constant
// memory. It transparently handles gzip-compressed traces (as written by
// tracegen -gzip). A Reader can be Reset onto a new stream, reusing its
// internal buffers, so decode loops that replay many traces allocate only
// on the first.
type Reader struct {
	raw     *bufio.Reader // over the source stream
	zr      *gzip.Reader  // lazily created, reused across Resets
	zbr     *bufio.Reader // over zr when the stream is compressed
	br      *bufio.Reader // decode stream: raw or zbr
	name    string
	total   uint64
	read    uint64
	prevPC  uint64
	prevAdr uint64
	hist    uint16 // branch history before the next record
	// loadBits marks which past records were loads, so dependency
	// references can be verified during streaming decode.
	loadBits []uint64
	magicBuf [len(magic)]byte
	nameBuf  []byte
}

// NewReader parses the trace header and returns a streaming reader.
func NewReader(r io.Reader) (*Reader, error) {
	rd := &Reader{}
	if err := rd.Reset(r); err != nil {
		return nil, err
	}
	return rd, nil
}

// Reset re-initializes the reader to stream a new trace from src, parsing
// its header. Internal buffers (bufio windows, the gzip inflater, the
// dependency bitmap) are reused, so resetting is allocation-free in steady
// state.
func (r *Reader) Reset(src io.Reader) error {
	if r.raw == nil {
		r.raw = bufio.NewReader(src)
	} else {
		r.raw.Reset(src)
	}
	r.br = r.raw
	// Transparent gzip: sniff the two-byte magic.
	if head, err := r.raw.Peek(2); err == nil && head[0] == 0x1f && head[1] == 0x8b {
		if r.zr == nil {
			gz, err := gzip.NewReader(r.raw)
			if err != nil {
				return fmt.Errorf("trace: opening gzip stream: %w", err)
			}
			r.zr = gz
			r.zbr = bufio.NewReader(gz)
		} else {
			if err := r.zr.Reset(r.raw); err != nil {
				return fmt.Errorf("trace: opening gzip stream: %w", err)
			}
			r.zbr.Reset(r.zr)
		}
		r.br = r.zbr
	}
	r.read, r.prevPC, r.prevAdr, r.hist = 0, 0, 0, 0
	for i := range r.loadBits {
		r.loadBits[i] = 0
	}
	return r.readHeader()
}

func (r *Reader) readHeader() error {
	if _, err := io.ReadFull(r.br, r.magicBuf[:]); err != nil {
		return fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(r.magicBuf[:]) != magic {
		return fmt.Errorf("trace: bad magic %q", r.magicBuf)
	}
	ver, err := binary.ReadUvarint(r.br)
	if err != nil {
		return fmt.Errorf("trace: reading version: %w", err)
	}
	if ver != version {
		return fmt.Errorf("trace: unsupported version %d", ver)
	}
	nameLen, err := binary.ReadUvarint(r.br)
	if err != nil {
		return fmt.Errorf("trace: reading name length: %w", err)
	}
	if nameLen > 1<<16 {
		return fmt.Errorf("trace: unreasonable name length %d", nameLen)
	}
	if uint64(cap(r.nameBuf)) < nameLen {
		r.nameBuf = make([]byte, nameLen)
	}
	r.nameBuf = r.nameBuf[:nameLen]
	if _, err := io.ReadFull(r.br, r.nameBuf); err != nil {
		return fmt.Errorf("trace: reading name: %w", err)
	}
	r.name = string(r.nameBuf)
	count, err := binary.ReadUvarint(r.br)
	if err != nil {
		return fmt.Errorf("trace: reading count: %w", err)
	}
	if count > MaxTraceBytes/minRecordBytes {
		return fmt.Errorf("trace: record count %d implies a trace beyond the %d-byte limit", count, MaxTraceBytes)
	}
	r.total = count
	return nil
}

// MaxTraceBytes bounds the trace size a header's record count may imply
// (at the 2-byte minimum record encoding), so a corrupt header cannot
// drive unbounded allocation in Read or the streaming reader's
// dependency-tracking bitmaps. Tools replaying genuinely larger traces may
// raise it before calling NewReader.
var MaxTraceBytes uint64 = 2 << 30

// minRecordBytes is the smallest encoding of one record (kind + flags).
const minRecordBytes = 2

// Name returns the workload name from the header.
func (r *Reader) Name() string { return r.name }

// Len returns the total record count from the header.
func (r *Reader) Len() int { return int(r.total) }

// Next decodes the next record into rec, filling its BranchHist as a
// Cursor does. It returns io.EOF after the last record.
func (r *Reader) Next(rec *Record) error {
	if r.read >= r.total {
		return io.EOF
	}
	i := r.read
	kindB, err := r.br.ReadByte()
	if err != nil {
		return fmt.Errorf("trace: record %d kind: %w", i, noEOF(err))
	}
	flags, err := r.br.ReadByte()
	if err != nil {
		return fmt.Errorf("trace: record %d flags: %w", i, noEOF(err))
	}
	*rec = Record{Kind: Kind(kindB), Dep: NoDep, Taken: flags&flagTaken != 0, BranchHist: r.hist}
	switch rec.Kind {
	case KindCompute:
		c, err := binary.ReadUvarint(r.br)
		if err != nil {
			return fmt.Errorf("trace: record %d count: %w", i, noEOF(err))
		}
		if c == 0 || c > 1<<31 {
			return fmt.Errorf("trace: record %d compute count %d invalid", i, c)
		}
		rec.Count = uint32(c)
	case KindBranch:
		d, err := binary.ReadVarint(r.br)
		if err != nil {
			return fmt.Errorf("trace: record %d pc: %w", i, noEOF(err))
		}
		r.prevPC = uint64(int64(r.prevPC) + d)
		rec.PC = r.prevPC
		r.hist = foldBranch(r.hist, rec.Taken)
	case KindLoad, KindStore:
		if err := r.readMem(rec, flags, i); err != nil {
			return err
		}
	case KindWarmupEnd:
		// no payload
	default:
		return fmt.Errorf("trace: record %d unknown kind %d", i, kindB)
	}
	if rec.Kind == KindLoad {
		word := int(i >> 6)
		if word >= len(r.loadBits) {
			// Grow geometrically, capped by the header record count (i is
			// always < total, so the cap is never undershot): the bitmap
			// can cost at most 1 bit per record the stream actually holds.
			n := 2 * len(r.loadBits)
			if n <= word {
				n = word + 1
			}
			if maxWords := int((r.total + 63) >> 6); n > maxWords {
				n = maxWords
			}
			grown := make([]uint64, n)
			copy(grown, r.loadBits)
			r.loadBits = grown
		}
		r.loadBits[word] |= 1 << (i & 63)
	}
	r.read++
	return nil
}

// isLoad reports whether record j (already decoded) was a load.
func (r *Reader) isLoad(j uint64) bool {
	word := int(j >> 6)
	return word < len(r.loadBits) && r.loadBits[word]&(1<<(j&63)) != 0
}

func (r *Reader) readMem(rec *Record, flags byte, i uint64) error {
	d, err := binary.ReadVarint(r.br)
	if err != nil {
		return fmt.Errorf("trace: record %d pc: %w", i, noEOF(err))
	}
	r.prevPC = uint64(int64(r.prevPC) + d)
	rec.PC = r.prevPC
	d, err = binary.ReadVarint(r.br)
	if err != nil {
		return fmt.Errorf("trace: record %d addr: %w", i, noEOF(err))
	}
	r.prevAdr = uint64(int64(r.prevAdr) + d)
	rec.Addr = memmodel.Addr(r.prevAdr)
	sz, err := r.br.ReadByte()
	if err != nil {
		return fmt.Errorf("trace: record %d size: %w", i, noEOF(err))
	}
	if sz == 0 {
		return fmt.Errorf("trace: record %d memory access of size 0", i)
	}
	rec.Size = sz
	if flags&flagDep != 0 {
		back, err := binary.ReadUvarint(r.br)
		if err != nil {
			return fmt.Errorf("trace: record %d dep: %w", i, noEOF(err))
		}
		if back == 0 || back > i {
			return fmt.Errorf("trace: record %d dep distance %d invalid", i, back)
		}
		if !r.isLoad(i - back) {
			return fmt.Errorf("trace: record %d depends on non-load %d", i, i-back)
		}
		rec.Dep = int32(i - back)
	}
	if flags&flagValue != 0 {
		v, err := binary.ReadUvarint(r.br)
		if err != nil {
			return fmt.Errorf("trace: record %d value: %w", i, noEOF(err))
		}
		rec.Value = v
	}
	if flags&flagReg != 0 {
		v, err := binary.ReadUvarint(r.br)
		if err != nil {
			return fmt.Errorf("trace: record %d reg: %w", i, noEOF(err))
		}
		rec.Reg = v
	}
	if flags&flagHints != 0 {
		tid, err := binary.ReadUvarint(r.br)
		if err != nil {
			return fmt.Errorf("trace: record %d typeid: %w", i, noEOF(err))
		}
		off, err := binary.ReadUvarint(r.br)
		if err != nil {
			return fmt.Errorf("trace: record %d linkoff: %w", i, noEOF(err))
		}
		rf, err := r.br.ReadByte()
		if err != nil {
			return fmt.Errorf("trace: record %d refform: %w", i, noEOF(err))
		}
		if RefForm(rf) >= refFormCount {
			return fmt.Errorf("trace: record %d invalid ref form %d", i, rf)
		}
		rec.Hints = SWHints{Valid: true, TypeID: uint16(tid), LinkOffset: uint16(off), RefForm: RefForm(rf)}
	}
	return nil
}

// noEOF converts io.EOF into io.ErrUnexpectedEOF: inside a record an EOF
// always means truncation.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// WriteGzip serializes t to w through gzip compression; NewReader (and
// Read) decompress transparently.
func WriteGzip(w io.Writer, t *Trace) error {
	gz := gzip.NewWriter(w)
	if err := Write(gz, t); err != nil {
		gz.Close()
		return err
	}
	return gz.Close()
}
