package trace

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzReader proves the streaming decoder (NewReader + Next) never panics
// on arbitrary bytes: every malformed input must surface as an error or a
// clean io.EOF. Every trace it does decode must survive the compact storage
// and the encoder: written back and read again, it holds the same records,
// the same checksum and the same dependency reach. A seed corpus is
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
	// A header claiming a huge record count over no payload.
	huge := []byte("SLTR\x01\x00")
	huge = binary.AppendUvarint(huge, 1<<62)
	f.Add(huge)
	corrupted := append([]byte(nil), plain.Bytes()...)
	if len(corrupted) > 12 {
		corrupted[7] ^= 0x40
		corrupted[11] ^= 0x08
	}
	f.Add(corrupted)

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatalf("re-encoding a decoded trace: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("decoding a re-encoded trace: %v", err)
		}
		if back.Name != tr.Name {
			t.Fatalf("name %q read back as %q", tr.Name, back.Name)
		}
		sameRecords(t, back, tr)
		if back.Checksum() != tr.Checksum() {
			t.Fatalf("checksum %#x read back as %#x", tr.Checksum(), back.Checksum())
		}
		if back.DepReach() != tr.DepReach() || tr.DepReach() != tr.ComputeStats().DepReach {
			t.Fatalf("dependency reach %d read back as %d, ComputeStats %d",
				tr.DepReach(), back.DepReach(), tr.ComputeStats().DepReach)
		}
	})
}
