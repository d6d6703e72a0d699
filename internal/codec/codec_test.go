package codec

import (
	"bytes"
	"errors"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"gostats/internal/chip"
	"gostats/internal/model"
	"gostats/internal/schema"
)

func testHeader() Header {
	return Header{Hostname: "c401-101", Arch: "sandybridge", Registry: schema.DefaultRegistry()}
}

// normalize applies the canonical form both codecs emit so expected
// snapshots can be compared against decoded ones.
func normalize(s model.Snapshot, host string) model.Snapshot {
	out := s.Clone()
	out.Host = host
	out.Time = float64(int64(s.Time*1000+0.5)) / 1000
	out.JobIDs = sortedJobIDs(s.JobIDs)
	for i := range out.Records {
		out.Records[i].Instance = sanitizeInstance(out.Records[i].Instance)
	}
	if out.Records == nil {
		out.Records = []model.Record{}
	}
	return out
}

func fixtureSnapshots(reg *schema.Registry) []model.Snapshot {
	mkRec := func(c schema.Class, inst string, seed uint64) model.Record {
		sch := reg.Get(c)
		vals := make([]uint64, sch.Len())
		for i := range vals {
			vals[i] = seed + uint64(i)*7
		}
		return model.Record{Class: c, Instance: inst, Values: vals}
	}
	return []model.Snapshot{
		{
			Time: 1451606400, JobIDs: []string{"4002", "4001"}, Mark: "begin 4001",
			Records: []model.Record{mkRec(schema.ClassCPU, "0", 100), mkRec(schema.ClassCPU, "1", 200)},
		},
		{
			Time: 1451606700.25, JobIDs: []string{"4001"},
			Records: []model.Record{
				mkRec(schema.ClassCPU, "0", 150), mkRec(schema.ClassCPU, "1", 260),
				mkRec(schema.ClassIB, "mlx4_0/1", 9000), mkRec(schema.ClassMem, "", 4096),
			},
		},
		{
			Time: 1451607000.999, Mark: "end 4001",
			Records: []model.Record{mkRec(schema.ClassCPU, "0", 170)},
		},
	}
}

func encodeAll(t *testing.T, h Header, v Version, snaps []model.Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, h, v)
	if err != nil {
		t.Fatalf("NewEncoder(%s): %v", v, err)
	}
	for _, s := range snaps {
		if err := enc.WriteSnapshot(s); err != nil {
			t.Fatalf("WriteSnapshot(%s): %v", v, err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatalf("Flush(%s): %v", v, err)
	}
	return buf.Bytes()
}

func TestRoundTripBothVersions(t *testing.T) {
	h := testHeader()
	snaps := fixtureSnapshots(h.Registry)
	for _, v := range []Version{V1Text, V2Binary} {
		data := encodeAll(t, h, v, snaps)
		st, err := DecodeAll(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("DecodeAll(%s): %v", v, err)
		}
		if st.Version != v {
			t.Fatalf("decoded version = %s, want %s", st.Version, v)
		}
		if st.Header.Hostname != h.Hostname || st.Header.Arch != h.Arch {
			t.Fatalf("decoded header = %+v", st.Header)
		}
		if len(st.Snapshots) != len(snaps) {
			t.Fatalf("%s: decoded %d snapshots, want %d", v, len(st.Snapshots), len(snaps))
		}
		for i, got := range st.Snapshots {
			want := normalize(snaps[i], h.Hostname)
			if got.Records == nil {
				got.Records = []model.Record{}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s snapshot %d:\n got %+v\nwant %+v", v, i, got, want)
			}
		}
	}
}

func TestSniff(t *testing.T) {
	h := testHeader()
	snaps := fixtureSnapshots(h.Registry)
	if v, err := Sniff(encodeAll(t, h, V1Text, snaps)); err != nil || v != V1Text {
		t.Fatalf("Sniff(text) = %v, %v", v, err)
	}
	if v, err := Sniff(encodeAll(t, h, V2Binary, snaps)); err != nil || v != V2Binary {
		t.Fatalf("Sniff(binary) = %v, %v", v, err)
	}
	if _, err := Sniff([]byte("garbage")); err == nil {
		t.Fatal("Sniff(garbage) should fail")
	}
	if _, err := Sniff(nil); err == nil {
		t.Fatal("Sniff(empty) should fail")
	}
}

// TestPropertyEquivalence is the randomized codec-equivalence property
// test: for arbitrary snapshots covering every schema class, marks,
// multi-job labels, and empty/hostile instance names, decode(encode(s))
// must be identical under v1 text and v2 binary.
func TestPropertyEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h := testHeader()
	classes := h.Registry.Classes()
	instances := []string{"", "0", "1", "mlx4_0/1", "has space", "tab\tchar", "-", "eth0"}
	marks := []string{"", "begin 77", "end 77", "procdump"}

	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(5)
		snaps := make([]model.Snapshot, 0, n)
		// Times at millisecond granularity, increasing but with jitter.
		tms := int64(1451606400000) + int64(rng.Intn(1000))*137
		for i := 0; i < n; i++ {
			tms += int64(rng.Intn(600000))
			s := model.Snapshot{Time: float64(tms) / 1000, Mark: marks[rng.Intn(len(marks))]}
			for j := rng.Intn(4); j > 0; j-- {
				s.JobIDs = append(s.JobIDs, string(rune('a'+rng.Intn(5)))+"42")
			}
			for r := rng.Intn(8); r > 0; r-- {
				c := classes[rng.Intn(len(classes))]
				sch := h.Registry.Get(c)
				vals := make([]uint64, sch.Len())
				for k := range vals {
					// Mix huge counters, small gauges, and zero.
					switch rng.Intn(3) {
					case 0:
						vals[k] = rng.Uint64()
					case 1:
						vals[k] = uint64(rng.Intn(1000))
					}
				}
				s.Records = append(s.Records, model.Record{
					Class: c, Instance: instances[rng.Intn(len(instances))], Values: vals,
				})
			}
			snaps = append(snaps, s)
		}

		text := encodeAll(t, h, V1Text, snaps)
		bin := encodeAll(t, h, V2Binary, snaps)
		stText, err := DecodeAll(bytes.NewReader(text))
		if err != nil {
			t.Fatalf("trial %d: decode text: %v", trial, err)
		}
		stBin, err := DecodeAll(bytes.NewReader(bin))
		if err != nil {
			t.Fatalf("trial %d: decode binary: %v", trial, err)
		}
		if !reflect.DeepEqual(stText.Snapshots, stBin.Snapshots) {
			t.Fatalf("trial %d: text and binary decode differ:\ntext %+v\nbin  %+v",
				trial, stText.Snapshots, stBin.Snapshots)
		}
		if !reflect.DeepEqual(stText.Header, stBin.Header) {
			t.Fatalf("trial %d: headers differ: %+v vs %+v", trial, stText.Header, stBin.Header)
		}
	}
}

// TestContinuation verifies appending to an existing stream with
// NewContinuation yields one decodable stream for both codecs.
func TestContinuation(t *testing.T) {
	h := testHeader()
	snaps := fixtureSnapshots(h.Registry)
	for _, v := range []Version{V1Text, V2Binary} {
		var buf bytes.Buffer
		enc, err := NewEncoder(&buf, h, v)
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.WriteSnapshot(snaps[0]); err != nil {
			t.Fatal(err)
		}
		enc.Flush()

		cont, err := NewContinuation(&buf, h, v)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range snaps[1:] {
			if err := cont.WriteSnapshot(s); err != nil {
				t.Fatal(err)
			}
		}
		cont.Flush()

		st, err := DecodeAll(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: decode continued stream: %v", v, err)
		}
		if len(st.Snapshots) != len(snaps) {
			t.Fatalf("%s: decoded %d snapshots, want %d", v, len(st.Snapshots), len(snaps))
		}
		for i, got := range st.Snapshots {
			if got.Time != normalize(snaps[i], h.Hostname).Time {
				t.Fatalf("%s: snapshot %d time = %v", v, i, got.Time)
			}
		}
	}
}

// TestBinaryCrashRecovery truncates a binary stream at every byte
// offset and verifies Recover always yields a whole-frame prefix:
// each recovered snapshot is complete and identical to the original.
func TestBinaryCrashRecovery(t *testing.T) {
	h := testHeader()
	snaps := fixtureSnapshots(h.Registry)
	data := encodeAll(t, h, V2Binary, snaps)
	full, err := DecodeAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut < len(data); cut++ {
		// A cut exactly at a frame boundary is indistinguishable from a
		// clean end of stream, so rerr may be nil there; what recovery
		// must never do is yield a partial or corrupted snapshot.
		st, _, _ := Recover(data[:cut])
		if st == nil {
			continue // header never recovered — acceptable for early cuts
		}
		if len(st.Snapshots) > len(full.Snapshots) {
			t.Fatalf("cut %d: recovered %d snapshots from prefix", cut, len(st.Snapshots))
		}
		for i, got := range st.Snapshots {
			if !reflect.DeepEqual(got, full.Snapshots[i]) {
				t.Fatalf("cut %d: snapshot %d differs after recovery:\n got %+v\nwant %+v",
					cut, i, got, full.Snapshots[i])
			}
		}
	}

	// Corruption (bit flip) inside a frame must also stop recovery at the
	// preceding frame boundary, not yield garbage.
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)-10] ^= 0x40
	st, _, rerr := Recover(corrupt)
	if rerr == nil {
		t.Fatal("bit flip went undetected")
	}
	if st != nil {
		for i, got := range st.Snapshots {
			if !reflect.DeepEqual(got, full.Snapshots[i]) {
				t.Fatalf("post-corruption snapshot %d differs", i)
			}
		}
	}
}

// TestTextRecoveryUnchanged pins the v1 recovery semantics the spool
// and the archive's append path depend on: a tail torn inside the last
// snapshot's block drops that snapshot, and keep ends where its block
// began, so the kept prefix is exactly the whole snapshots.
func TestTextRecoveryUnchanged(t *testing.T) {
	h := testHeader()
	snaps := fixtureSnapshots(h.Registry)
	data := encodeAll(t, h, V1Text, snaps)

	// Cut mid-record-line inside the last snapshot's block.
	idx := bytes.LastIndexByte(bytes.TrimRight(data, "\n"), ' ')
	cut := data[:idx]

	st, keep, err := Recover(cut)
	if err == nil {
		t.Fatal("expected damage error")
	}
	if len(st.Snapshots) != len(snaps)-1 {
		t.Fatalf("Recover kept %d snapshots, want %d", len(st.Snapshots), len(snaps)-1)
	}
	whole := encodeAll(t, h, V1Text, snaps[:len(snaps)-1])
	if !bytes.Equal(cut[:keep], whole) {
		t.Fatalf("Recover kept %d bytes, want the %d of the whole snapshots", keep, len(whole))
	}

	// A tear inside the next block's timestamp line keeps every block
	// before it whole.
	ts := bytes.LastIndex(data, []byte("\n"+strconv.FormatFloat(snaps[len(snaps)-1].Time, 'f', 3, 64))) + 1
	st, keep, err = Recover(data[:ts+4])
	if err == nil || len(st.Snapshots) != len(snaps)-1 || keep != ts {
		t.Fatalf("torn timestamp line: kept %d snapshots in %d bytes (err %v), want %d in %d",
			len(st.Snapshots), keep, err, len(snaps)-1, ts)
	}
}

// TestTextTornLastLine: a stream cut inside its last line is damaged
// even when what is left of the line parses. Dropping the fixture's
// final newline and the 2 before it would read the value 212 as 21;
// both decoders must instead keep only the whole snapshots before the
// torn block.
func TestTextTornLastLine(t *testing.T) {
	h := testHeader()
	snaps := fixtureSnapshots(h.Registry)
	data := encodeAll(t, h, V1Text, snaps)
	if !bytes.HasSuffix(data, []byte(" 212\n")) {
		t.Fatalf("fixture tail changed: %q", data[len(data)-20:])
	}
	whole := encodeAll(t, h, V1Text, snaps[:len(snaps)-1])
	for _, cut := range [][]byte{data[:len(data)-1], data[:len(data)-2]} {
		st, keep, err := Recover(cut)
		if err == nil || keep != len(whole) || len(st.Snapshots) != len(snaps)-1 {
			t.Fatalf("cut to %d of %d bytes: kept %d snapshots in %d bytes (err %v), want %d in %d",
				len(cut), len(data), len(st.Snapshots), keep, err, len(snaps)-1, len(whole))
		}
		d, err := NewDecoder(bytes.NewReader(cut))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for ; ; n++ {
			if _, err = d.Next(); err != nil {
				break
			}
		}
		if err == io.EOF || n != len(snaps)-1 {
			t.Fatalf("cut to %d bytes: streamed %d snapshots then %v, want %d then damage", len(cut), n, err, len(snaps)-1)
		}
	}
	// A header cut inside a line is a truncated header for both.
	cut := data[:bytes.IndexByte(data, '\n')+5]
	if _, keep, err := Recover(cut); err != errTruncatedHeader || keep != 0 {
		t.Fatalf("torn header: kept %d bytes, err %v", keep, err)
	}
	if _, err := NewDecoder(bytes.NewReader(cut)); err != errTruncatedHeader {
		t.Fatalf("torn header: streaming decoder err %v", err)
	}
}

func TestStreamingDecoderNext(t *testing.T) {
	h := testHeader()
	snaps := fixtureSnapshots(h.Registry)
	data := encodeAll(t, h, V2Binary, snaps)
	d, err := NewDecoder(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if d.Header().Hostname != h.Hostname {
		t.Fatalf("Header() = %+v before first Next", d.Header())
	}
	var n int
	for {
		_, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != len(snaps) {
		t.Fatalf("streamed %d snapshots, want %d", n, len(snaps))
	}
}

func TestWireRoundTrip(t *testing.T) {
	h := testHeader()
	snaps := fixtureSnapshots(h.Registry)
	for _, v := range []Version{V1Text, V2Binary} {
		for i, s := range snaps {
			s.Host = h.Hostname
			msg, err := EncodeWire(s, h.Registry, v)
			if err != nil {
				t.Fatalf("EncodeWire(%s): %v", v, err)
			}
			got, gotV, err := DecodeWire(msg, h.Registry)
			if err != nil {
				t.Fatalf("DecodeWire(%s): %v", v, err)
			}
			if gotV != v {
				t.Fatalf("wire version = %s, want %s", gotV, v)
			}
			want := normalize(s, h.Hostname)
			if got.Records == nil {
				got.Records = []model.Record{}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s wire snapshot %d:\n got %+v\nwant %+v", v, i, got, want)
			}
		}
	}
}

func TestWireFingerprintMismatch(t *testing.T) {
	h := testHeader()
	s := fixtureSnapshots(h.Registry)[0]
	s.Host = h.Hostname
	msg, err := EncodeWire(s, h.Registry, V2Binary)
	if err != nil {
		t.Fatal(err)
	}
	other, _ := schema.NewRegistry(schema.CPUSchema())
	if _, _, err := DecodeWire(msg, other); !errors.Is(err, ErrFingerprintMismatch) {
		t.Fatalf("DecodeWire with wrong registry = %v, want ErrFingerprintMismatch", err)
	}
}

func TestWireUnknownBytes(t *testing.T) {
	if _, _, err := DecodeWire([]byte{0x1f, 0x02, 0x03}, schema.DefaultRegistry()); !errors.Is(err, ErrUnknownWire) {
		t.Fatalf("gob-ish bytes = %v, want ErrUnknownWire", err)
	}
}

func TestParseVersion(t *testing.T) {
	for in, want := range map[string]Version{
		"text": V1Text, "v1": V1Text, "1": V1Text, "v1-text": V1Text,
		"binary": V2Binary, "V2": V2Binary, "2": V2Binary, "v2-binary": V2Binary,
	} {
		got, err := ParseVersion(in)
		if err != nil || got != want {
			t.Errorf("ParseVersion(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseVersion("protobuf"); err == nil {
		t.Error("ParseVersion(protobuf) should fail")
	}
}

// TestBinarySmallerThanText is the compression sanity gate backing the
// bytes-on-wire acceptance criterion.
func TestBinarySmallerThanText(t *testing.T) {
	h := testHeader()
	var snaps []model.Snapshot
	base := fixtureSnapshots(h.Registry)
	for i := 0; i < 200; i++ {
		s := base[i%len(base)].Clone()
		s.Time += float64(i * 300)
		snaps = append(snaps, s)
	}
	text := len(encodeAll(t, h, V1Text, snaps))
	bin := len(encodeAll(t, h, V2Binary, snaps))
	if bin*2 > text {
		t.Fatalf("binary stream %dB not ≥2× smaller than text %dB", bin, text)
	}
}

func TestDecoderRejectsGarbageAfterMagic(t *testing.T) {
	bad := append(append([]byte(nil), binMagic[:]...), 0x02, frameSnapshot, 0x01, 0xff)
	if _, err := DecodeAll(bytes.NewReader(bad)); err == nil {
		t.Fatal("snapshot-before-header stream should fail")
	}
}

// TestTextEncoderMatchesReference checks the append encoder against the
// fmt encoder it replaced on random snapshots: awkward times, full-range
// values, unsorted job ids, marks, traces and instance names the
// encoder must sanitize, through both the file and the wire encoder.
func TestTextEncoderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	h := testHeader()
	classes := h.Registry.Classes()
	instances := []string{"", "0", "mlx4_0/1", "has space", "tab\tchar", "new\nline", "né", "bad\xffutf8", " "}
	times := []float64{0, -1.5, 1451606400.0005, 1451606400.9995, 1e21, 123.456789, math.Inf(1), math.SmallestNonzeroFloat64}
	for trial := 0; trial < 200; trial++ {
		var snaps []model.Snapshot
		for i := rng.Intn(4); i >= 0; i-- {
			s := model.Snapshot{Host: "h", Time: times[rng.Intn(len(times))] + rng.Float64()*float64(rng.Intn(2))}
			for j := rng.Intn(4); j > 0; j-- {
				s.JobIDs = append(s.JobIDs, strconv.Itoa(rng.Intn(1000)))
			}
			if rng.Intn(2) == 0 {
				s.Mark = "end " + strconv.Itoa(rng.Intn(1000))
			}
			if rng.Intn(2) == 0 {
				s.Trace = []model.StageStamp{{Stage: model.StageCollect, UnixNs: rng.Int63()}, {Stage: model.StagePublish, UnixNs: -rng.Int63()}}
			}
			for r := rng.Intn(6); r > 0; r-- {
				c := classes[rng.Intn(len(classes))]
				vals := make([]uint64, h.Registry.Get(c).Len())
				for k := range vals {
					vals[k] = rng.Uint64() >> rng.Intn(64)
				}
				s.Records = append(s.Records, model.Record{Class: c, Instance: instances[rng.Intn(len(instances))], Values: vals})
			}
			snaps = append(snaps, s)
		}
		if got, want := encodeAll(t, h, V1Text, snaps), refEncodeText(h, snaps); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: stream\n got %q\nwant %q", trial, got, want)
		}
		wh := Header{Hostname: snaps[0].Host, Registry: h.Registry}
		got, err := EncodeWire(snaps[0], h.Registry, V1Text)
		if want := refEncodeText(wh, snaps[:1]); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("trial %d: wire (err %v)\n got %q\nwant %q", trial, err, got, want)
		}
	}
}

// TestRegistryFingerprintUnchanged pins the fingerprint registries now
// compute once to the hash the wire codec used to compute per message:
// FNV-64a over the sorted schema lines, each newline-terminated.
func TestRegistryFingerprintUnchanged(t *testing.T) {
	old := func(reg *schema.Registry) uint64 {
		h := fnv.New64a()
		if reg != nil {
			for _, c := range reg.Classes() {
				h.Write([]byte(reg.Get(c).Line()))
				h.Write([]byte{'\n'})
			}
		}
		return h.Sum64()
	}
	empty, _ := schema.NewRegistry()
	for _, reg := range []*schema.Registry{nil, empty, schema.DefaultRegistry(), otherRegistry(t)} {
		if got, want := RegistryFingerprint(reg), old(reg); got != want {
			t.Fatalf("fingerprint %016x, want %016x", got, want)
		}
	}
}

// TestRegistryBlocksReparse checks that every built-in registry's schema
// block parses back to the same schemas. That is what makes reusing a
// consumer's registry for a v1 wire header that matches its block byte
// for byte equivalent to parsing the header.
func TestRegistryBlocksReparse(t *testing.T) {
	regs := []*schema.Registry{schema.DefaultRegistry()}
	for _, a := range chip.Archs() {
		d, err := chip.ByArch(a)
		if err != nil {
			t.Fatal(err)
		}
		cfg := chip.StampedeNode()
		cfg.Desc = d
		regs = append(regs, cfg.Registry())
	}
	regs = append(regs, chip.LargeMemNode().Registry(), chip.LonestarNode().Registry())
	for _, reg := range regs {
		var parsed []*schema.Schema
		for _, line := range strings.SplitAfter(reg.Block(), "\n") {
			if line == "" {
				continue
			}
			s, err := schema.ParseLine(strings.TrimSuffix(line, "\n"))
			if err != nil {
				t.Fatal(err)
			}
			parsed = append(parsed, s)
		}
		again, err := schema.NewRegistry(parsed...)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range reg.Classes() {
			if !reflect.DeepEqual(again.Get(c), reg.Get(c)) {
				t.Fatalf("class %s: block re-parses to %+v, registry has %+v", c, again.Get(c), reg.Get(c))
			}
		}
		if len(again.Classes()) != len(reg.Classes()) {
			t.Fatalf("block re-parses to %d classes, registry has %d", len(again.Classes()), len(reg.Classes()))
		}
	}
}

// TestTextEncoderRefusesUnreadableRecords: a record the text parser
// would reject (unknown class, wrong value count) fails the write with
// nothing written, and the encoder keeps taking good snapshots.
func TestTextEncoderRefusesUnreadableRecords(t *testing.T) {
	h := testHeader()
	good := fixtureSnapshots(h.Registry)[0]
	unknown := good.Clone()
	unknown.Records = append(unknown.Records, model.Record{Class: "nosuch", Instance: "0", Values: []uint64{1}})
	short := good.Clone()
	short.Records[0].Values = short.Records[0].Values[:2]
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, h, V1Text)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		s    model.Snapshot
		want string
	}{{unknown, `codec: record for unknown class "nosuch"`}, {short, "schema wants"}} {
		before := buf.Len()
		if err := enc.WriteSnapshot(c.s); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("WriteSnapshot: err %v, want %q", err, c.want)
		}
		if buf.Len() != before {
			t.Fatalf("refused snapshot wrote %d bytes", buf.Len()-before)
		}
	}
	if err := enc.WriteSnapshot(good); err != nil {
		t.Fatal(err)
	}
	st, err := DecodeAll(bytes.NewReader(buf.Bytes()))
	if err != nil || len(st.Snapshots) != 1 {
		t.Fatalf("decoded %+v, err %v", st, err)
	}
}
