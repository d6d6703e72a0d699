package broker

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"gostats/internal/framelog"
)

// reencode decodes a frame payload by its type, as the side that
// receives that type does, and encodes the result again.
func reencode(typ byte, p []byte) ([]byte, error) {
	switch typ {
	case typePub:
		f, err := parsePub(p)
		if err != nil {
			return nil, err
		}
		return framelog.Append(nil, typePub, f.appendHead(nil), f.Body), nil
	case typeMsg:
		m, err := parseMsg(p)
		if err != nil {
			return nil, err
		}
		return framelog.Append(nil, typeMsg, m.appendHead(nil), m.Body), nil
	case typeAck:
		n, err := parseUvarintPayload(p)
		if err != nil {
			return nil, err
		}
		return appendAck(nil, n), nil
	case typeErr:
		f, err := parseStrings(p, 2)
		if err != nil {
			return nil, err
		}
		return appendErr(nil, f[0], f[1]), nil
	case typeSub:
		f, err := parseStrings(p, 1)
		if err != nil {
			return nil, err
		}
		return appendSub(nil, f[0]), nil
	case typeMap:
		v, payload, err := parseMap(p)
		if err != nil {
			return nil, err
		}
		return appendMap(nil, v, payload), nil
	}
	return nil, fmt.Errorf("unknown frame type %q", typ)
}

// seedFrames are real frames of every type.
func seedFrames() [][]byte {
	pub := pubFrame{Queue: "gostats.raw.p003", Codec: 2, Confirm: true, Host: "c401-101", Seq: 1 << 40,
		Body: []byte("$gostats 2.0\n$hostname c401-101\n")}
	msg := Msg{Host: "c401-101", Seq: 300, Body: []byte{0, 'G', 'S', 'W', 2, 1, 2, 3}}
	return [][]byte{
		framelog.Append(nil, typePub, pub.appendHead(nil), pub.Body),
		framelog.Append(nil, typePub, (&pubFrame{Queue: "q"}).appendHead(nil)),
		framelog.Append(nil, typeMsg, msg.appendHead(nil), msg.Body),
		framelog.Append(nil, typeMsg, (&Msg{}).appendHead(nil)),
		appendAck(nil, 0),
		appendAck(nil, 1<<63),
		appendErr(nil, codeCodecMismatch, "producer codec v1-text, broker pinned to v2-binary"),
		appendSub(nil, "gostats.raw"),
		appendMap(nil, 7, []byte(`{"version":7}`)),
		appendMap(nil, 0, nil),
	}
}

// FuzzBrokerFrame feeds every op's payload decoder arbitrary bytes: it
// must not panic, and whatever it accepts must encode back to exactly
// the frame it came from. The frame layer must hand the payload back
// intact and refuse a payload over its bound.
func FuzzBrokerFrame(f *testing.F) {
	for _, fr := range seedFrames() {
		typ, p, err := framelog.Decode(fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(typ, p)
	}
	f.Fuzz(func(t *testing.T, typ byte, p []byte) {
		frame := framelog.Append(nil, typ, p)
		if out, err := reencode(typ, p); err == nil && !bytes.Equal(out, frame) {
			t.Fatalf("type %q payload %x re-encodes to %x", typ, p, out)
		}
		gotTyp, got, err := framelog.ReadFrame(bufio.NewReader(bytes.NewReader(frame)), nil, maxFramePayload)
		if err != nil || gotTyp != typ || !bytes.Equal(got, p) {
			t.Fatalf("frame layer round trip: type %q, %v", gotTyp, err)
		}
		if len(p) > 0 {
			_, _, err := framelog.ReadFrame(bufio.NewReader(bytes.NewReader(frame)), nil, len(p)-1)
			if err == nil || !strings.Contains(err.Error(), framelog.Oversize.String()) {
				t.Fatalf("payload over the bound read as %v", err)
			}
		}
	})
}

// A frame declaring a payload over maxFramePayload is refused from its
// header, before a buffer for it is allocated.
func TestOversizeFrameRefusedBeforeAllocation(t *testing.T) {
	hdr := binary.AppendUvarint([]byte{typePub}, maxFramePayload+1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := framelog.ReadFrame(bufio.NewReader(bytes.NewReader(hdr)), nil, maxFramePayload)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), framelog.Oversize.String()) {
		t.Fatalf("oversize frame read as %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("refusing an oversize frame allocated %d bytes", grew)
	}
}
