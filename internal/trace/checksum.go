package trace

// Checksum returns a deterministic FNV-1a digest of the trace's name and
// every record field. The experiment runner records it when a trace enters
// the shared cache and re-verifies it after concurrent simulations, turning
// any write to supposedly immutable shared trace data into a loud failure
// instead of a silent cross-run corruption (see DESIGN.md, "Parallel
// execution & determinism contract").
func (t *Trace) Checksum() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	for i := 0; i < len(t.Name); i++ {
		h ^= uint64(t.Name[i])
		h *= prime64
	}
	c := t.Cursor()
	for c.Next() {
		r := c.Record()
		mix(r.PC)
		mix(uint64(r.Addr))
		mix(r.Value)
		mix(r.Reg)
		mix(uint64(uint32(r.Dep)))
		mix(uint64(r.Count))
		var flags uint64
		flags = uint64(r.Kind)<<8 | uint64(r.Size)
		if r.Taken {
			flags |= 1 << 16
		}
		if r.Hints.Valid {
			flags |= 1 << 17
		}
		flags |= uint64(r.Hints.TypeID) << 18
		flags |= uint64(r.Hints.LinkOffset) << 34
		flags |= uint64(r.Hints.RefForm) << 50
		mix(flags)
	}
	return h
}
