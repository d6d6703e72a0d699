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
// Whenever DecodeWireLines certifies record lines, the block head
// encoded from its snapshot plus those lines must be exactly the block
// the encoder writes for it.
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
	for _, c := range nonCanonicalWires(f) {
		f.Add(c.wire)
	}

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
			s, _, lines, _ := DecodeWireLines(data, r)
			if !reflect.DeepEqual(s, wantSnap) {
				t.Fatalf("DecodeWireLines: %+v, reference %+v", s, wantSnap)
			}
			if lines == nil {
				continue
			}
			if r != reg {
				t.Fatalf("lines certified under a registry the header never matches: %q", lines)
			}
			if got, want := append(appendTextHead(nil, s), lines...), appendTextBlock(nil, s); !bytes.Equal(got, want) {
				t.Fatalf("head + certified lines:\n%q\nencoder writes:\n%q", got, want)
			}
		}
	})
}

type namedWire struct {
	name string
	wire []byte
}

// nonCanonicalWires are v1 wire messages, each one edit away from the
// fixture's, that decode to one snapshot but whose record lines are not
// what the encoder writes for it, or whose header is not the consumer
// registry's: DecodeWireLines must certify none of their lines.
func nonCanonicalWires(t testing.TB) []namedWire {
	wire := goldenTextWire(t)
	edit := func(old, new string) []byte {
		if !bytes.Contains(wire, []byte(old)) {
			t.Fatalf("fixture wire lacks %q", old)
		}
		return bytes.Replace(wire, []byte(old), []byte(new), 1)
	}
	return []namedWire{
		{"double space", edit(" 150 ", "  150 ")},
		{"tab", edit(" 150 ", "\t150 ")},
		{"trailing space", edit(" 192\n", " 192 \n")},
		{"CRLF", edit(" 192\n", " 192\r\n")},
		{"leading zero", edit(" 150 ", " 0150 ")},
		{"NBSP instance", edit("has_space 150", "has_space\u00a0150")},
		{"mark after records", append(bytes.Clone(wire), "% late\n"...)},
		{"trace after records", append(bytes.Clone(wire), "%trace collect:1\n"...)},
		{"blank line after a record", edit(" 192\n", " 192\n\n")},
		{"foreign schema block", edit("\n\n", "\n!zz a,E\n\n")},
	}
}

// TestWireLinesCertified checks DecodeWireLines on canonical messages
// — the fixture and the encoder's message for every fixture snapshot —
// and on each non-canonical edit of the fixture, which must still
// decode but certify nothing.
func TestWireLinesCertified(t *testing.T) {
	reg := testHeader().Registry
	canonical := [][]byte{goldenTextWire(t)}
	for _, s := range fixtureSnapshots(reg) {
		w, err := EncodeWire(s, reg, V1Text)
		if err != nil {
			t.Fatal(err)
		}
		canonical = append(canonical, w)
	}
	for i, w := range canonical {
		s, v, lines, err := DecodeWireLines(w, reg)
		if err != nil || v != V1Text {
			t.Fatalf("message %d: version %s, err %v", i, v, err)
		}
		if lines == nil {
			t.Fatalf("message %d: no lines certified in %q", i, w)
		}
		if got, want := append(appendTextHead(nil, s), lines...), appendTextBlock(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("message %d: head + lines %q, block %q", i, got, want)
		}
		if _, _, lines, _ := DecodeWireLines(w, otherRegistry(t)); lines != nil {
			t.Fatalf("message %d: lines certified against a registry its header does not match", i)
		}
	}
	for _, c := range nonCanonicalWires(t) {
		t.Run(c.name, func(t *testing.T) {
			s, _, lines, err := DecodeWireLines(c.wire, reg)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if len(s.Records) == 0 {
				t.Fatal("decoded no records")
			}
			if lines != nil {
				t.Fatalf("certified %q", lines)
			}
		})
	}
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
