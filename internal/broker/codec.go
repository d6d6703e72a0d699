package broker

import (
	"gostats/internal/codec"
	"gostats/internal/model"
	"gostats/internal/schema"
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
