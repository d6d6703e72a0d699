package codec

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gostats/internal/model"
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
	if rec, tail, err := RecoverPrefix(fixture); err != nil || tail != nil || len(rec.Snapshots) != len(wantSnaps) {
		t.Fatalf("recover stream fixture: %d snapshots, %d tail bytes, err %v", len(rec.Snapshots), len(tail), err)
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
