package framelog

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var testMagic = [4]byte{0x00, 'T', 'S', 'T'}

// testLog is a preamble and three frames, the last one empty.
func testLog() []byte {
	b := AppendPreamble(nil, testMagic, 3)
	b = Append(b, 'A', []byte("first payload"))
	b = Append(b, 'B', bytes.Repeat([]byte{0xfe}, 300))
	return Append(b, 'A', nil)
}

func TestScanDamageKinds(t *testing.T) {
	data := testLog()
	start, pre := CheckPreamble(data, testMagic, 3)
	if pre != PreambleOK || start != 5 {
		t.Fatalf("CheckPreamble = %d, %s", start, pre)
	}
	var ends []int
	good, err := Scan(data, start, 1<<10, func(f Frame) error {
		ends = append(ends, f.End)
		return nil
	})
	if err != nil || good != len(data) || len(ends) != 3 {
		t.Fatalf("clean scan: good %d of %d, %d frames, err %v", good, len(data), len(ends), err)
	}
	second := ends[0] // offset of the 300-byte frame

	flip := func(at int) []byte {
		b := append([]byte(nil), data...)
		b[at] ^= 0x01
		return b
	}
	for _, tc := range []struct {
		name      string
		data      []byte
		maxPay    int
		kind      Kind
		atEOF     bool
		wantGood  int
		damageOff int
	}{
		{"torn length", data[:second+2], 1 << 10, TornLength, true, second, second},
		{"torn frame", data[:second+40], 1 << 10, TornFrame, true, second, second},
		{"overlong length", append(data[:second:second], 'B', 0x81, 0x80, 0x00, 'x'), 1 << 10, BadLength, false, second, second},
		{"oversize", data, 100, Oversize, false, second, second},
		{"checksum mid-file", flip(second + 10), 1 << 10, BadChecksum, false, second, second},
		{"checksum last frame", flip(len(data) - 1), 1 << 10, BadChecksum, true, ends[1], ends[1]},
	} {
		good, err := Scan(tc.data, start, tc.maxPay, func(Frame) error { return nil })
		var d *Damage
		if !errors.As(err, &d) {
			t.Fatalf("%s: err %v, want *Damage", tc.name, err)
		}
		if d.Kind != tc.kind || d.AtEOF != tc.atEOF || d.Off != tc.damageOff || good != tc.wantGood {
			t.Fatalf("%s: damage %+v good %d, want kind %s atEOF %v off %d good %d",
				tc.name, *d, good, tc.kind, tc.atEOF, tc.damageOff, tc.wantGood)
		}
	}

	stop := errors.New("stop")
	good, err = Scan(data, start, 1<<10, func(f Frame) error {
		if f.Type == 'B' {
			return stop
		}
		return nil
	})
	if err != stop || good != second {
		t.Fatalf("callback error: good %d err %v, want %d and the callback's error", good, err, second)
	}
}

func TestCheckPreamble(t *testing.T) {
	full := AppendPreamble(nil, testMagic, 300) // two-byte version varint
	for _, tc := range []struct {
		data []byte
		want Preamble
	}{
		{nil, PreamblePartial},
		{full[:2], PreamblePartial},
		{full[:4], PreamblePartial},
		{full[:5], PreamblePartial},
		{full, PreambleOK},
		{[]byte("\x00TSX\x01"), PreambleForeign},
		{[]byte("garbage"), PreambleForeign},
		{AppendPreamble(nil, testMagic, 301), PreambleVersion},
	} {
		if _, got := CheckPreamble(tc.data, testMagic, 300); got != tc.want {
			t.Fatalf("CheckPreamble(% x) = %s, want %s", tc.data, got, tc.want)
		}
	}
}

// TestReadFrameAndDecodeAgreeWithScan reads the same log through the
// streaming reader and the single-frame decoder.
func TestReadFrameAndDecodeAgreeWithScan(t *testing.T) {
	data := testLog()
	var want []Frame
	Scan(data, 5, 1<<10, func(f Frame) error {
		want = append(want, f)
		return nil
	})
	r := bufio.NewReader(bytes.NewReader(data[5:]))
	var buf []byte
	for i, f := range want {
		typ, payload, err := ReadFrame(r, buf, 1<<10)
		if err != nil || typ != f.Type || !bytes.Equal(payload, f.Payload) {
			t.Fatalf("ReadFrame %d: %q %q %v", i, typ, payload, err)
		}
		buf = payload
		typ, payload, err = Decode(data[f.Off:f.End])
		if err != nil || typ != f.Type || !bytes.Equal(payload, f.Payload) {
			t.Fatalf("Decode %d: %q %q %v", i, typ, payload, err)
		}
	}
	if _, _, err := ReadFrame(r, buf, 1<<10); err != io.EOF {
		t.Fatalf("ReadFrame at end = %v, want io.EOF", err)
	}
	torn := bufio.NewReader(bytes.NewReader(data[5 : len(data)-3]))
	var err error
	for err == nil {
		_, buf, err = ReadFrame(torn, buf, 1<<10)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn stream: %v, want io.ErrUnexpectedEOF", err)
	}
	if _, _, err := Decode(data[want[1].Off : want[1].End-1]); err == nil {
		t.Fatal("Decode accepted a short frame")
	}
}

func TestCreateWritesPreamble(t *testing.T) {
	for _, sync := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "log")
		f, n, err := Create(path, testMagic, 7, sync)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if start, pre := CheckPreamble(data, testMagic, 7); pre != PreambleOK || start != n || n != len(data) {
			t.Fatalf("sync=%v: file % x, preamble %s at %d, Create reported %d", sync, data, pre, start, n)
		}
	}
}

func TestCursor(t *testing.T) {
	b := AppendString(nil, "host")
	b = append(b, 0x03)                                     // count 3
	b = append(b, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f) // Float consumes 8, only 7 left
	c := Cursor{B: b}
	if s, err := c.Str(); err != nil || s != "host" {
		t.Fatalf("Str = %q, %v", s, err)
	}
	if n, err := c.Count(3); err != nil || n != 3 {
		t.Fatalf("Count = %d, %v", n, err)
	}
	if _, err := c.Float(); err == nil {
		t.Fatal("Float read past the payload")
	}
	over := Cursor{B: []byte{0x40, 0x00}}
	if _, err := over.Count(1); err == nil {
		t.Fatal("Count accepted 64 elements in a 1-byte remainder")
	}
}

// FuzzScan feeds arbitrary bytes to Scan. It must never panic, never
// report a valid prefix longer than the data, and the frames it yields
// must re-Append to exactly the prefix it calls valid.
func FuzzScan(f *testing.F) {
	data := testLog()
	f.Add(data, uint16(5))
	f.Add(data[:len(data)-2], uint16(5))
	f.Add(data, uint16(0))
	f.Add([]byte{'A', 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, uint16(0))
	f.Add([]byte{}, uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, s uint16) {
		start := int(s) % (len(data) + 1)
		var re []byte
		good, err := Scan(data, start, 1<<12, func(f Frame) error {
			re = Append(re, f.Type, f.Payload)
			return nil
		})
		if good < start || good > len(data) {
			t.Fatalf("good %d outside [%d,%d]", good, start, len(data))
		}
		if (err == nil) != (good == len(data)) {
			t.Fatalf("good %d of %d with err %v", good, len(data), err)
		}
		if !bytes.Equal(re, data[start:good]) {
			t.Fatalf("re-appended frames differ from the valid prefix [%d,%d)", start, good)
		}
	})
}
