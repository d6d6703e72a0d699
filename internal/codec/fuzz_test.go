package codec

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"gostats/internal/model"
	"gostats/internal/schema"
)

// FuzzBinaryDecode throws arbitrary bytes at the binary stream and wire
// decoders. They must reject damage with an error — never panic, never
// allocate unboundedly. FuzzRecover owns recovery.
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
		DecodeWire(data, reg)
	})
}

// FuzzTextDecode is a differential target: on every input the
// byte-slice v1 parser must return the same snapshots, or the same
// error, as the reference Scanner/strings.Fields decoder — through the
// streaming DecodeAll, the prefix Recover keeps, and DecodeWire against
// a registry whose block the header may match and one it never matches.
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

		if got, keep, _ := Recover(data); keep > 0 {
			want, werr := refDecodeAll(data[:keep])
			sameStream(t, "Recover", got, nil, want, werr)
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

// FuzzRecover checks the one recovery rule on arbitrary bytes in either
// codec: keep stays within the input, the kept prefix is an intact
// stream of exactly the recovered snapshots, and the streaming decoder
// yields those same snapshots before its first error.
func FuzzRecover(f *testing.F) {
	h := testHeader()
	snaps := fixtureSnapshots(h.Registry)
	encode := func(v Version) []byte {
		var buf bytes.Buffer
		enc, err := NewEncoder(&buf, h, v)
		if err != nil {
			f.Fatal(err)
		}
		for _, s := range snaps {
			if err := enc.WriteSnapshot(s); err != nil {
				f.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	text := encode(V1Text)
	lastTS := bytes.LastIndex(text, []byte("\n1451607000.999")) + 1
	f.Add(text)
	f.Add(text[:bytes.LastIndexByte(bytes.TrimRight(text, "\n"), ' ')]) // inside a record
	f.Add(text[:lastTS+5])                                              // at a timestamp line
	f.Add(text[:20])                                                    // in the header
	f.Add(text[:len(text)-2])                                           // in the last line: 212 reads as 21
	f.Add(bytes.Replace(text, []byte(" 157 "), []byte(" x57 "), 1))     // mid-stream
	bin := encode(V2Binary)
	f.Add(bin)
	f.Add(bin[:len(bin)-2])      // in a frame's CRC
	f.Add(bin[:len(bin)/2])      // in a frame
	f.Add(bin[:len(binMagic)+3]) // in the header frame
	flip := bytes.Clone(bin)
	flip[len(flip)/2] ^= 0x40
	f.Add(flip)

	f.Fuzz(func(t *testing.T, data []byte) {
		st, keep, damage := Recover(data)
		if keep < 0 || keep > len(data) || (st == nil) != (keep == 0) {
			t.Fatalf("kept %d of %d bytes, stream %v", keep, len(data), st != nil)
		}
		if damage == nil && keep != len(data) {
			t.Fatalf("no damage, but kept %d of %d bytes", keep, len(data))
		}
		var want []model.Snapshot
		if st != nil {
			want = st.Snapshots
			again, k, err := Recover(data[:keep])
			if err != nil || k != keep || !reflect.DeepEqual(again.Snapshots, want) {
				t.Fatalf("kept prefix: %d snapshots in %d bytes (err %v), want %d in %d",
					len(again.Snapshots), k, err, len(want), keep)
			}
		}
		var got []model.Snapshot
		d, err := NewDecoder(bytes.NewReader(data))
		for err == nil {
			var s model.Snapshot
			if s, err = d.Next(); err == nil {
				got = append(got, s)
			}
		}
		if err == io.EOF {
			err = nil
		}
		if !reflect.DeepEqual(got, want) || (err == nil) != (damage == nil) {
			t.Fatalf("streaming decoder: %d snapshots (err %v), Recover: %d (damage %v)",
				len(got), err, len(want), damage)
		}
	})
}
