package broker

import (
	"errors"
	"reflect"
	"testing"

	"gostats/internal/codec"
	"gostats/internal/model"
	"gostats/internal/schema"
)

func wireSnapshot() model.Snapshot {
	return model.Snapshot{
		Time:   1700000000.250,
		Host:   "c401-102",
		JobIDs: []string{"12345"},
		Records: []model.Record{
			{Class: "cpu", Instance: "0", Values: []uint64{100, 0, 25, 900, 10, 0, 4}},
		},
	}
}

// A broker pinned to the binary wire version must reject a producer
// declaring any other codec with the named error, and accept a matching
// one — version skew fails the publish instead of misframing the queue.
func TestServerRejectsCodecMismatch(t *testing.T) {
	srv, addr := startServer(t)
	srv.WireVersion = codec.V2Binary

	for _, v := range []codec.Version{0, codec.V1Text} {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		c.Codec = v
		err = c.PublishConfirmedSeq("q", []byte("body"), "", 0)
		c.Close()
		if !errors.Is(err, ErrCodecMismatch) {
			t.Fatalf("codec %v: err = %v, want ErrCodecMismatch", v, err)
		}
	}

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Codec = codec.V2Binary
	if err := c.PublishConfirmedSeq("q", []byte("body"), "", 0); err != nil {
		t.Fatalf("matching codec rejected: %v", err)
	}
}

// An unpinned broker keeps accepting every codec, including producers
// that declare none — mixed fleets negotiate per message.
func TestUnpinnedServerAcceptsAnyCodec(t *testing.T) {
	_, addr := startServer(t)
	for _, v := range []codec.Version{0, codec.V1Text, codec.V2Binary} {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		c.Codec = v
		err = c.PublishConfirmedSeq("q", []byte("body"), "", 0)
		c.Close()
		if err != nil {
			t.Fatalf("codec %v rejected by unpinned server: %v", v, err)
		}
	}
}

// Snapshots published through the versioned wire encodings must decode
// identically on the consumer side.
func TestSnapshotWireRoundTripThroughBroker(t *testing.T) {
	_, addr := startServer(t)
	reg := schema.DefaultRegistry()
	want := wireSnapshot()

	for _, v := range []codec.Version{codec.V1Text, codec.V2Binary} {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		sent, err := EncodeSnapshotWire(want, reg, v)
		if err != nil {
			t.Fatalf("codec %v: encode: %v", v, err)
		}
		c.Codec = v
		if err := c.Publish(StatsQueue, sent); err != nil {
			t.Fatalf("codec %v: publish: %v", v, err)
		}
		c.Close()

		cons, err := DialConsumer(addr, StatsQueue)
		if err != nil {
			t.Fatal(err)
		}
		body, err := nextAcked(cons)
		cons.Close()
		if err != nil {
			t.Fatal(err)
		}
		got, gotV, err := DecodeSnapshotWire(body, reg)
		if err != nil {
			t.Fatalf("codec %v: decode: %v", v, err)
		}
		if gotV != v {
			t.Fatalf("decoded version = %v, want %v", gotV, v)
		}
		if got.Host != want.Host || !reflect.DeepEqual(got.JobIDs, want.JobIDs) ||
			!reflect.DeepEqual(got.Records, want.Records) {
			t.Fatalf("codec %v: round trip mismatch:\n got %+v\nwant %+v", v, got, want)
		}
	}
}
