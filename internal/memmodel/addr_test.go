package memmodel

import (
	"testing"
	"testing/quick"
)

func TestLineOf(t *testing.T) {
	cases := []struct {
		addr Addr
		line Line
	}{
		{0, 0},
		{1, 0},
		{63, 0},
		{64, 1},
		{65, 1},
		{127, 1},
		{128, 2},
		{0xffffffc0, 0x3ffffff},
	}
	for _, c := range cases {
		if got := LineOf(c.addr); got != c.line {
			t.Errorf("LineOf(%v) = %v, want %v", c.addr, got, c.line)
		}
	}
}

func TestLineBaseRoundTrip(t *testing.T) {
	f := func(a Addr) bool {
		l := LineOf(a)
		base := l.Base()
		return base <= a && a < base+LineSize && LineOf(base) == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLineDelta(t *testing.T) {
	l := Line(100)
	if d := l.Delta(Line(90)); d != 10 {
		t.Errorf("Delta = %d, want 10", d)
	}
	if d := Line(90).Delta(l); d != -10 {
		t.Errorf("Delta = %d, want -10", d)
	}
	if got := l.AddLines(-10); got != Line(90) {
		t.Errorf("AddLines = %v, want 90", got)
	}
}

func TestAlign(t *testing.T) {
	if got := AlignUp(17, 16); got != 32 {
		t.Errorf("AlignUp(17,16) = %d, want 32", got)
	}
	if got := AlignUp(32, 16); got != 32 {
		t.Errorf("AlignUp(32,16) = %d, want 32", got)
	}
}

func TestAlignProperty(t *testing.T) {
	f := func(a Addr) bool {
		const al = 64
		up := AlignUp(a, al)
		return up >= a && up%al == 0 && up-a < al
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddrString(t *testing.T) {
	if s := Addr(0x1234).String(); s != "0x1234" {
		t.Errorf("Addr.String = %q", s)
	}
	if s := Line(0x12).String(); s != "line:0x12" {
		t.Errorf("Line.String = %q", s)
	}
}
