package broker

import (
	"gostats/internal/codec"
	"gostats/internal/model"
	"gostats/internal/schema"
	"gostats/internal/trace"
)

// StatsQueue is the conventional queue name node daemons publish raw
// collections to.
const StatsQueue = "gostats.raw"

// EncodeSnapshotWire serializes a snapshot for transport in the given
// codec version (codec.V1Text or codec.V2Binary).
func EncodeSnapshotWire(s model.Snapshot, reg *schema.Registry, v codec.Version) ([]byte, error) {
	return codec.EncodeWire(s, reg, v)
}

// DecodeSnapshotWire deserializes a transport message: tagged codec
// messages (v1 text, v2 binary) decode against reg, and bytes in neither
// format are an error (codec.ErrUnknownWire). The returned version is
// the codec that matched, letting consumers account traffic per codec in
// mixed-version fleets.
func DecodeSnapshotWire(b []byte, reg *schema.Registry) (model.Snapshot, codec.Version, error) {
	return codec.DecodeWire(b, reg)
}

// SnapshotPublisher adapts a Client to the collect.Publisher interface:
// each snapshot becomes one message on StatsQueue, in Codec against
// Registry. A zero Codec publishes codec.V1Text and a nil Registry is
// schema.DefaultRegistry(), the defaults a Listener decodes with.
type SnapshotPublisher struct {
	C        *Client
	Codec    codec.Version
	Registry *schema.Registry
	// Trace, if set, stamps the publish hop into each snapshot's
	// provenance trace before encoding.
	Trace *trace.Recorder
}

// Publish implements collect.Publisher.
func (p SnapshotPublisher) Publish(s model.Snapshot) error {
	p.Trace.Stamp(&s, model.StagePublish)
	v, reg := p.Codec, p.Registry
	if v == codec.VersionUnknown {
		v = codec.V1Text
	}
	if reg == nil {
		reg = schema.DefaultRegistry()
	}
	b, err := EncodeSnapshotWire(s, reg, v)
	if err != nil {
		return err
	}
	p.C.Codec = v
	return p.C.Publish(StatsQueue, b)
}
