package prefetch

import (
	"semloc/internal/memmodel"
	"semloc/internal/trace"
)

// Oracle is a limit-study prefetcher: it reads the trace ahead of time and
// prefetches exactly the line that will be demanded Distance accesses in
// the future. It bounds what any single-request-per-access prefetcher with
// perfect knowledge could achieve on this machine — useful for placing the
// context prefetcher's results on an absolute scale (how much of the
// achievable benefit the learning actually captured).
type Oracle struct {
	future   []memmodel.Line
	distance int
	cursor   int
}

// NewOracle builds the oracle for one specific trace. distance is how many
// accesses ahead it prefetches (0 or negative defaults to 24, inside the
// default reward window).
func NewOracle(tr *trace.Trace, distance int) *Oracle {
	if distance <= 0 {
		distance = 24
	}
	future := make([]memmodel.Line, 0, tr.Accesses())
	c := tr.Cursor()
	for c.Next() {
		if r := c.Record(); r.IsMem() {
			future = append(future, memmodel.LineOf(r.Addr))
		}
	}
	return &Oracle{future: future, distance: distance}
}

// Name implements Prefetcher.
func (*Oracle) Name() string { return "oracle" }

// OnAccess implements Prefetcher: prefetch the line demanded `distance`
// accesses from now.
func (o *Oracle) OnAccess(a *Access, iss Issuer) {
	target := o.cursor + o.distance
	o.cursor++
	if target >= len(o.future) {
		return
	}
	line := o.future[target]
	if line == a.Line {
		return
	}
	iss.Prefetch(line.Base(), a.Now)
}
