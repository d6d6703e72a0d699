package rawfile

import (
	"bytes"
	"testing"
)

// FuzzParseRecover throws arbitrary bytes at the lenient raw-file
// reader. Whatever the damage — torn text, torn binary frames, garbage —
// it must return an intact-prefix parse or an error, never panic, and
// the torn tail it reports must be a suffix-sized slice of the input.
func FuzzParseRecover(f *testing.F) {
	var text bytes.Buffer
	w := NewWriter(&text, testHeader())
	w.WriteSnapshot(testSnapshot(1451606400, "4001", "4002"))
	s := testSnapshot(1451607000, "4001")
	s.Mark = "end 4002"
	w.WriteSnapshot(s)
	full := text.Bytes()
	f.Add(full)
	f.Add(full[:len(full)-7]) // torn inside the last record block
	f.Add([]byte("$gostats 2.0\n$hostname c1\n"))
	f.Add([]byte("not a raw file at all"))
	f.Add([]byte{0x00, 'G', 'S', 'B', 0x02, 'H'})

	f.Fuzz(func(t *testing.T, data []byte) {
		file, tail, err := ParseRecover(bytes.NewReader(data))
		if err == nil && file == nil {
			t.Fatal("recovery reported success with nil file")
		}
		if len(tail) > len(data) {
			t.Fatalf("tail %d bytes from %d-byte input", len(tail), len(data))
		}
	})
}
