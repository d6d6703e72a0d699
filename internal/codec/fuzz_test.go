package codec

import (
	"bytes"
	"reflect"
	"testing"

	"gostats/internal/schema"
)

// FuzzBinaryDecode throws arbitrary bytes at every binary entry point.
// The decoder must reject damage with an error — never panic, never
// allocate unboundedly — and recovery must stay within the input.
func FuzzBinaryDecode(f *testing.F) {
	h := testHeader()
	reg := schema.DefaultRegistry()
	var snaps = fixtureSnapshots(reg)

	var buf bytes.Buffer
	enc, _ := NewEncoder(&buf, h, V2Binary)
	for _, s := range snaps {
		enc.WriteSnapshot(s)
	}
	full := buf.Bytes()
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Add(full[:len(binMagic)+1])
	if wire, err := EncodeWire(snaps[0], reg, V2Binary); err == nil {
		f.Add(wire)
	}
	f.Add([]byte{0x00, 'G', 'S', 'B', 0x02})
	f.Add([]byte{0x00, 'G', 'S', 'W', 0x02})

	f.Fuzz(func(t *testing.T, data []byte) {
		if st, err := DecodeAll(bytes.NewReader(data)); err == nil && st == nil {
			t.Fatal("nil stream without error")
		}
		if st, tail, err := RecoverPrefix(data); err == nil && st == nil {
			t.Fatal("recovery reported success with nil stream")
		} else if len(tail) > len(data) {
			t.Fatal("recovered tail longer than input")
		}
		RecoverFrames(data)
		DecodeWire(data, reg)
	})
}

// FuzzTextDecode is a differential target: on every input the
// byte-slice v1 parser must return the same snapshots, or the same
// error, as the reference Scanner/strings.Fields decoder — through the
// streaming DecodeAll, the in-memory RecoverPrefix, and DecodeWire
// against a registry whose block the header may match and one it never
// matches.
func FuzzTextDecode(f *testing.F) {
	stream := goldenTextStream(f)
	wire := goldenTextWire(f)
	f.Add(stream)
	f.Add(wire)
	f.Add(stream[:len(stream)/2])
	f.Add(stream[:len(stream)-7])
	f.Add(bytes.ReplaceAll(stream, []byte("\n"), []byte("\r\n")))
	f.Add(bytes.Replace(wire, []byte(" 150 "), []byte(" 18446744073709551616 "), 1))
	f.Add(bytes.Replace(wire, []byte(" 150 "), []byte(" 15x "), 1))
	f.Add(bytes.Replace(wire, []byte(" 150 "), []byte(" 150 "), 1))
	f.Add(bytes.Replace(wire, []byte("cpu 0"), []byte("gpu 0"), 1))
	f.Add(bytes.Replace(wire, []byte("\n\n"), []byte("\n!cpu user,E\n\n"), 1))
	f.Add(bytes.Replace(stream, []byte("$gostats 2.0"), []byte("$gostats 1.0"), 1))
	f.Add([]byte("$gostats 2.0\n$hostname h\n!cpu a,E b\n\n% early\n1.5 -\ncpu 0 1 2\n2 x\n%trace collect:x\n"))
	f.Add([]byte("$gostats 2.0\n!cpu a\n!cpu a\n\n"))

	reg := testHeader().Registry
	other := otherRegistry(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || data[0] != '$' {
			return // not a text stream: the binary targets own these
		}
		want, werr := refDecodeAll(data)
		got, gerr := DecodeAll(bytes.NewReader(data))
		sameStream(t, "DecodeAll", got, gerr, want, werr)

		want, wtail, werr := refRecoverText(data)
		got, gtail, gerr := RecoverPrefix(data)
		sameStream(t, "RecoverPrefix", got, gerr, want, werr)
		if !bytes.Equal(gtail, wtail) {
			t.Fatalf("RecoverPrefix tail %q, reference %q", gtail, wtail)
		}

		wantSnap, werr := refDecodeWireText(data)
		for _, r := range []*schema.Registry{reg, other} {
			s, _, gerr := DecodeWire(data, r)
			if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
				t.Fatalf("DecodeWire: error %v, reference %v", gerr, werr)
			}
			if !reflect.DeepEqual(s, wantSnap) {
				t.Fatalf("DecodeWire: %+v, reference %+v", s, wantSnap)
			}
		}
	})
}
