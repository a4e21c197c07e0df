package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Binary trace format
//
//	magic   "SLTR" (4 bytes)
//	version uvarint (currently 1)
//	name    uvarint length + bytes
//	count   uvarint number of records
//	records, each:
//	    kind    byte
//	    flags   byte (bit0 taken, bit1 hints valid, bit2 has dep,
//	                  bit3 has value, bit4 has reg)
//	    compute: count uvarint
//	    branch:  pc delta svarint
//	    mem:     pc delta svarint, addr delta svarint, size byte,
//	             [dep backward-distance uvarint], [value uvarint],
//	             [reg uvarint],
//	             [hints: typeID uvarint, linkOff uvarint, refForm byte]
//
// PC and Addr are delta-encoded against the previous record's values, which
// keeps loop-heavy traces small.

const (
	magic   = "SLTR"
	version = 1
)

const (
	flagTaken = 1 << iota
	flagHints
	flagDep
	flagValue
	flagReg
)

// Write serializes t to w.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	putVarint := func(v int64) error {
		n := binary.PutVarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(version); err != nil {
		return err
	}
	if err := putUvarint(uint64(len(t.Name))); err != nil {
		return err
	}
	if _, err := bw.WriteString(t.Name); err != nil {
		return err
	}
	if err := putUvarint(uint64(t.Len())); err != nil {
		return err
	}
	var prevPC, prevAddr uint64
	c := t.Cursor()
	for c.Next() {
		i, r := c.Index(), c.Record()
		var flags byte
		if r.Taken {
			flags |= flagTaken
		}
		if r.Hints.Valid {
			flags |= flagHints
		}
		if r.Dep != NoDep {
			flags |= flagDep
		}
		if r.Value != 0 {
			flags |= flagValue
		}
		if r.Reg != 0 {
			flags |= flagReg
		}
		if err := bw.WriteByte(byte(r.Kind)); err != nil {
			return err
		}
		if err := bw.WriteByte(flags); err != nil {
			return err
		}
		switch r.Kind {
		case KindCompute:
			if err := putUvarint(uint64(r.Count)); err != nil {
				return err
			}
		case KindBranch:
			if err := putVarint(int64(r.PC) - int64(prevPC)); err != nil {
				return err
			}
			prevPC = r.PC
		case KindLoad, KindStore:
			if err := putVarint(int64(r.PC) - int64(prevPC)); err != nil {
				return err
			}
			prevPC = r.PC
			if err := putVarint(int64(r.Addr) - int64(prevAddr)); err != nil {
				return err
			}
			prevAddr = uint64(r.Addr)
			if err := bw.WriteByte(r.Size); err != nil {
				return err
			}
			if flags&flagDep != 0 {
				if err := putUvarint(uint64(int64(i) - int64(r.Dep))); err != nil {
					return err
				}
			}
			if flags&flagValue != 0 {
				if err := putUvarint(r.Value); err != nil {
					return err
				}
			}
			if flags&flagReg != 0 {
				if err := putUvarint(r.Reg); err != nil {
					return err
				}
			}
			if flags&flagHints != 0 {
				if err := putUvarint(uint64(r.Hints.TypeID)); err != nil {
					return err
				}
				if err := putUvarint(uint64(r.Hints.LinkOffset)); err != nil {
					return err
				}
				if err := bw.WriteByte(byte(r.Hints.RefForm)); err != nil {
					return err
				}
			}
		case KindWarmupEnd:
			// no payload
		default:
			return fmt.Errorf("trace: cannot encode unknown kind %d", r.Kind)
		}
	}
	return bw.Flush()
}

// Read deserializes a complete trace written by Write (or WriteGzip),
// decoding it with the streaming Reader.
func Read(r io.Reader) (*Trace, error) {
	sr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	e := NewEmitter(sr.Name())
	var rec Record
	for {
		switch err := sr.Next(&rec); err {
		case nil:
			e.Append(rec)
		case io.EOF:
			return e.Finish(), nil
		default:
			return nil, err
		}
	}
}
