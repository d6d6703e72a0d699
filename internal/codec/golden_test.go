package codec

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gostats/internal/model"
	"gostats/internal/schema"
)

// The golden fixtures under testdata/ were written by the codec before
// its framing moved into internal/framelog. Writers must still produce
// them byte for byte and readers must still decode them: a failure here
// means the v2 stream or wire format moved.

// goldenStream encodes the traced fixture snapshots as a v2 stream: the
// first snapshot under one header, the rest through a continuation
// (a second header frame) under another host name.
func goldenStream(t *testing.T) ([]byte, []model.Snapshot) {
	t.Helper()
	h := testHeader()
	snaps := tracedSnapshots(t)
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, h, V2Binary)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.WriteSnapshot(snaps[0]); err != nil {
		t.Fatal(err)
	}
	h2 := h
	h2.Hostname = "c401-102"
	cont, err := NewContinuation(&buf, h2, V2Binary)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range snaps[1:] {
		if err := cont.WriteSnapshot(s); err != nil {
			t.Fatal(err)
		}
	}
	want := []model.Snapshot{normalize(snaps[0], h.Hostname)}
	for _, s := range snaps[1:] {
		want = append(want, normalize(s, h2.Hostname))
	}
	return buf.Bytes(), want
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: writer output (%d bytes) differs from the golden fixture (%d bytes)", name, len(got), len(want))
	}
}

func TestGoldenFormats(t *testing.T) {
	stream, wantSnaps := goldenStream(t)
	checkGolden(t, "stream-v2.gsb", stream)

	fixture, err := os.ReadFile(filepath.Join("testdata", "stream-v2.gsb"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := DecodeAll(bytes.NewReader(fixture))
	if err != nil {
		t.Fatalf("decode stream fixture: %v", err)
	}
	if !reflect.DeepEqual(st.Snapshots, wantSnaps) {
		t.Fatalf("stream fixture decoded to %+v, want %+v", st.Snapshots, wantSnaps)
	}
	if rec, keep, err := Recover(fixture); err != nil || keep != len(fixture) || !reflect.DeepEqual(rec.Snapshots, wantSnaps) {
		t.Fatalf("recover stream fixture: %d snapshots, kept %d of %d bytes, err %v", len(rec.Snapshots), keep, len(fixture), err)
	}

	h := testHeader()
	snap := tracedSnapshots(t)[1]
	snap.Host = h.Hostname
	wire, err := EncodeWire(snap, h.Registry, V2Binary)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "wire-v2.gsw", wire)

	fixture, err = os.ReadFile(filepath.Join("testdata", "wire-v2.gsw"))
	if err != nil {
		t.Fatal(err)
	}
	got, v, err := DecodeWire(fixture, h.Registry)
	if err != nil || v != V2Binary {
		t.Fatalf("decode wire fixture: version %s, err %v", v, err)
	}
	if want := normalize(snap, h.Hostname); !reflect.DeepEqual(got, want) {
		t.Fatalf("wire fixture decoded to %+v, want %+v", got, want)
	}
}

// textGoldenSnapshots is the v1 fixture stream: marks, trace lines,
// unsorted job ids, instance names the encoder must sanitize (space,
// tab, newline, empty, non-ASCII, invalid UTF-8) and times finer than
// the format's millisecond resolution.
func textGoldenSnapshots(t testing.TB) []model.Snapshot {
	t.Helper()
	snaps := tracedSnapshots(t)
	snaps[0].Time = 1451606400.0004
	snaps[1].Time = 1451606700.2506
	snaps[1].JobIDs = []string{"4003", "4001", "4002"}
	recs := snaps[1].Records
	recs[0].Instance = "has space"
	recs[1].Instance = "tab\tchar"
	recs[2].Instance = "new\nline"
	recs[3].Instance = ""
	snaps[2].Records = append(snaps[2].Records,
		model.Record{Class: recs[0].Class, Instance: "né", Values: recs[0].Values},
		model.Record{Class: recs[0].Class, Instance: "bad\xffutf8", Values: recs[1].Values})
	snaps[2].Records[0].Values = append([]uint64{^uint64(0)}, snaps[2].Records[0].Values[1:]...)
	snaps[2].Trace = nil
	return snaps
}

// goldenTextStream encodes textGoldenSnapshots as a v1 stream: the first
// snapshot under a header, the rest through a continuation (which, in
// the text codec, writes no second header).
func goldenTextStream(t testing.TB) []byte {
	t.Helper()
	h := testHeader()
	snaps := textGoldenSnapshots(t)
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, h, V1Text)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.WriteSnapshot(snaps[0]); err != nil {
		t.Fatal(err)
	}
	cont, err := NewContinuation(&buf, h, V1Text)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range snaps[1:] {
		if err := cont.WriteSnapshot(s); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// goldenTextWire is the v1 wire message of the fixture's second snapshot.
func goldenTextWire(t testing.TB) []byte {
	t.Helper()
	h := testHeader()
	snap := textGoldenSnapshots(t)[1]
	snap.Host = h.Hostname
	wire, err := EncodeWire(snap, h.Registry, V1Text)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// TestGoldenTextFormats pins the v1 stream and wire bytes to fixtures
// the fmt encoder wrote, and checks the fixtures decode exactly as the
// reference decoder decodes them.
func TestGoldenTextFormats(t *testing.T) {
	h := testHeader()
	checkGolden(t, "stream-v1.txt", goldenTextStream(t))
	checkGolden(t, "wire-v1.txt", goldenTextWire(t))
	checkGolden(t, "stream-v1.txt", refEncodeText(h, textGoldenSnapshots(t)))

	stream, err := os.ReadFile(filepath.Join("testdata", "stream-v1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := refDecodeAll(stream)
	if err != nil || len(want.Snapshots) != 3 {
		t.Fatalf("reference decode of the stream fixture: %v", err)
	}
	got, err := DecodeAll(bytes.NewReader(stream))
	sameStream(t, "DecodeAll", got, err, want, nil)
	got, keep, err := Recover(stream)
	sameStream(t, "Recover", got, err, want, nil)
	if keep != len(stream) {
		t.Fatalf("Recover of an intact stream kept %d of %d bytes", keep, len(stream))
	}

	wire, err := os.ReadFile(filepath.Join("testdata", "wire-v1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	wantSnap, err := refDecodeWireText(wire)
	if err != nil {
		t.Fatal(err)
	}
	for _, reg := range []*schema.Registry{h.Registry, otherRegistry(t)} {
		s, v, err := DecodeWire(wire, reg)
		if err != nil || v != V1Text {
			t.Fatalf("decode wire fixture: version %s, err %v", v, err)
		}
		if !reflect.DeepEqual(s, wantSnap) {
			t.Fatalf("wire fixture decoded to %+v, want %+v", s, wantSnap)
		}
	}
}

// otherRegistry is a registry no fixture header matches.
func otherRegistry(t testing.TB) *schema.Registry {
	t.Helper()
	reg, err := schema.NewRegistry(schema.DefaultRegistry().Get(schema.ClassCPU))
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// sameStream fails unless two decodes agree: the same error text, or
// the same header and snapshots.
func sameStream(t testing.TB, what string, got *Stream, gerr error, want *Stream, werr error) {
	t.Helper()
	if gerr != nil || werr != nil {
		if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
			t.Fatalf("%s: error %v, reference %v", what, gerr, werr)
		}
		return
	}
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: stream %v, reference %v", what, got, want)
	}
	if got == nil {
		return
	}
	gh, wh := got.Header, want.Header
	if gh.Hostname != wh.Hostname || gh.Arch != wh.Arch || gh.Registry.Block() != wh.Registry.Block() {
		t.Fatalf("%s: header %+v, reference %+v", what, gh, wh)
	}
	if got.Version != want.Version || !reflect.DeepEqual(got.Snapshots, want.Snapshots) {
		t.Fatalf("%s: snapshots\n got %+v\nwant %+v", what, got.Snapshots, want.Snapshots)
	}
}
