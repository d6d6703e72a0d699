package codec

import (
	"bytes"
	"reflect"
	"testing"

	"gostats/internal/model"
)

func tracedSnapshots(t testing.TB) []model.Snapshot {
	t.Helper()
	h := testHeader()
	snaps := fixtureSnapshots(h.Registry)
	base := int64(1754640000_000000000)
	for i := range snaps {
		snaps[i].Trace = []model.StageStamp{
			{Stage: model.StageCollect, UnixNs: base + int64(i)*1e9},
			{Stage: model.StagePublish, UnixNs: base + int64(i)*1e9 + 350_000},
			{Stage: model.StageBrokerDeliver, UnixNs: base + int64(i)*1e9 + 1_200_000},
		}
	}
	// One snapshot passes through the spool: replay stamp in between.
	snaps[1].Trace = append(snaps[1].Trace[:2:2], model.StageStamp{
		Stage: model.StageSpoolReplay, UnixNs: base + 9e9,
	}, model.StageStamp{
		Stage: model.StageBrokerDeliver, UnixNs: base + 9e9 + 800_000,
	})
	return snaps
}

// TestTraceRoundTripBothVersions verifies provenance stamps survive
// encode/decode under both file codecs, and that traceless snapshots
// keep a nil Trace (so pre-trace comparisons remain exact).
func TestTraceRoundTripBothVersions(t *testing.T) {
	h := testHeader()
	snaps := tracedSnapshots(t)
	snaps = append(snaps, fixtureSnapshots(h.Registry)[0]) // traceless tail
	snaps[len(snaps)-1].Time = 1451608000

	for _, v := range []Version{V1Text, V2Binary} {
		data := encodeAll(t, h, v, snaps)
		st, err := DecodeAll(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("DecodeAll(%s): %v", v, err)
		}
		if len(st.Snapshots) != len(snaps) {
			t.Fatalf("%s: decoded %d snapshots, want %d", v, len(st.Snapshots), len(snaps))
		}
		for i, got := range st.Snapshots {
			if !reflect.DeepEqual(got.Trace, snaps[i].Trace) {
				t.Errorf("%s snapshot %d trace:\n got %+v\nwant %+v", v, i, got.Trace, snaps[i].Trace)
			}
		}
		if st.Snapshots[len(snaps)-1].Trace != nil {
			t.Errorf("%s: traceless snapshot decoded with trace %+v",
				v, st.Snapshots[len(snaps)-1].Trace)
		}
	}
}

// TestTraceWireRoundTrip verifies stamps survive both wire encodings —
// the path snapshots actually take through the broker.
func TestTraceWireRoundTrip(t *testing.T) {
	h := testHeader()
	for _, v := range []Version{V1Text, V2Binary} {
		for i, s := range tracedSnapshots(t) {
			s.Host = h.Hostname
			msg, err := EncodeWire(s, h.Registry, v)
			if err != nil {
				t.Fatalf("EncodeWire(%s): %v", v, err)
			}
			got, _, err := DecodeWire(msg, h.Registry)
			if err != nil {
				t.Fatalf("DecodeWire(%s): %v", v, err)
			}
			if !reflect.DeepEqual(got.Trace, s.Trace) {
				t.Errorf("%s wire %d trace: got %+v, want %+v", v, i, got.Trace, s.Trace)
			}
		}
	}
}

// TestTraceSurvivesCrashRecovery truncates a traced binary stream at
// every offset: recovered snapshots must carry their full traces — the
// spool's crash-recovery path must not strip provenance.
func TestTraceSurvivesCrashRecovery(t *testing.T) {
	h := testHeader()
	snaps := tracedSnapshots(t)
	data := encodeAll(t, h, V2Binary, snaps)
	full, err := DecodeAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		st, _, _ := Recover(data[:cut])
		if st == nil {
			continue
		}
		for i, got := range st.Snapshots {
			if !reflect.DeepEqual(got.Trace, full.Snapshots[i].Trace) {
				t.Fatalf("cut %d: snapshot %d trace lost in recovery:\n got %+v\nwant %+v",
					cut, i, got.Trace, full.Snapshots[i].Trace)
			}
		}
	}

	// Text recovery: a tail torn inside the %trace line itself must not
	// yield a corrupted snapshot.
	tdata := encodeAll(t, h, V1Text, snaps)
	idx := bytes.Index(tdata, []byte("%trace "))
	if idx < 0 {
		t.Fatal("text stream has no trace line")
	}
	st, _, _ := Recover(tdata[:idx+10])
	if st != nil {
		for _, got := range st.Snapshots {
			if got.Trace != nil && !reflect.DeepEqual(got.Trace, full.Snapshots[0].Trace) {
				t.Fatalf("torn trace line yielded corrupt trace %+v", got.Trace)
			}
		}
	}
}

// TestTracelessBytesUnchanged pins that adding trace support changed no
// bytes for untraced snapshots: the trace section is strictly optional.
func TestTracelessBytesUnchanged(t *testing.T) {
	h := testHeader()
	plain := fixtureSnapshots(h.Registry)
	traced := tracedSnapshots(t)
	for _, v := range []Version{V1Text, V2Binary} {
		a := encodeAll(t, h, v, plain)
		stripped := make([]model.Snapshot, len(traced))
		for i, s := range traced {
			s.Trace = nil
			stripped[i] = s
		}
		b := encodeAll(t, h, v, stripped)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: stripping traces does not restore original bytes", v)
		}
		if c := encodeAll(t, h, v, traced); bytes.Equal(a, c) {
			t.Errorf("%s: traced stream encoded to identical bytes — trace not written", v)
		}
	}
}
