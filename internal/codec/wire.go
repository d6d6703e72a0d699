// Wire encodings for single snapshots in flight through the broker.
//
// Broker queues interleave messages from many producers, so — unlike
// files and spool segments — a wire message cannot lean on cross-message
// decoder state. Each message is self-contained:
//
//   - v1 wire is a complete one-snapshot text stream (header + block);
//   - v2 wire is magic "\x00GSW" | uvarint version | payload | crc32c,
//     where the payload carries an 8-byte fingerprint of the producer's
//     schema registry (so consumer and producer detect schema drift
//     instead of mis-decoding), the hostname, and a snapshot body whose
//     counter vectors are delta-encoded within the message against the
//     previous record of the same class — consecutive instances of one
//     class (cpu cores, IB ports) have similar counter magnitudes, so
//     intra-message deltas recover most of the file codec's win without
//     any shared state.
//
// Consumers resolve records against their own registry; the fingerprint
// check makes a mismatch a named error (ErrFingerprintMismatch) rather
// than silent corruption.
package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"gostats/internal/framelog"
	"gostats/internal/model"
	"gostats/internal/schema"
)

// wireMagic prefixes every v2 wire message.
var wireMagic = [4]byte{0x00, 'G', 'S', 'W'}

// ErrFingerprintMismatch reports that a wire message was produced
// against a different schema registry than the consumer's.
var ErrFingerprintMismatch = errors.New("codec: schema fingerprint mismatch")

// ErrUnknownWire reports bytes that are neither v1 nor v2 wire format.
var ErrUnknownWire = errors.New("codec: unrecognized wire message")

// RegistryFingerprint hashes a schema registry (FNV-64a over its sorted
// schema lines, i.e. its schema block) so producer and consumer can
// cheaply verify they agree on record layout. The registry computes the
// hash once, when it is built.
func RegistryFingerprint(reg *schema.Registry) uint64 {
	if reg == nil {
		return emptyFingerprint
	}
	return reg.Fingerprint()
}

// emptyFingerprint is the FNV-64a hash of no bytes: the fingerprint of
// an absent registry.
const emptyFingerprint = 0xcbf29ce484222325

// EncodeWire encodes one snapshot as a self-contained wire message in
// the given codec version.
func EncodeWire(s model.Snapshot, reg *schema.Registry, v Version) ([]byte, error) {
	switch v {
	case V1Text:
		return encodeWireText(s, reg), nil
	case V2Binary:
		return encodeWireBinary(s, reg)
	default:
		return nil, fmt.Errorf("codec: cannot encode wire version %s", v)
	}
}

func encodeWireBinary(s model.Snapshot, reg *schema.Registry) ([]byte, error) {
	if reg == nil {
		return nil, fmt.Errorf("codec: binary wire encoding requires a schema registry")
	}
	classes := reg.Classes()
	classIdx := make(map[schema.Class]uint64, len(classes))
	for i, c := range classes {
		classIdx[c] = uint64(i)
	}

	payload := make([]byte, 0, 256)
	payload = binary.LittleEndian.AppendUint64(payload, RegistryFingerprint(reg))
	payload = framelog.AppendString(payload, s.Host)
	payload = binary.AppendVarint(payload, int64(math.Round(s.Time*1000)))
	jobs := sortedJobIDs(s.JobIDs)
	payload = binary.AppendUvarint(payload, uint64(len(jobs)))
	for _, j := range jobs {
		payload = framelog.AppendString(payload, j)
	}
	payload = framelog.AppendString(payload, s.Mark)
	payload = binary.AppendUvarint(payload, uint64(len(s.Records)))

	prevByClass := make(map[uint64][]uint64)
	for _, r := range s.Records {
		ci, ok := classIdx[r.Class]
		if !ok {
			return nil, fmt.Errorf("codec: record for unknown class %q", r.Class)
		}
		payload = binary.AppendUvarint(payload, ci)
		payload = framelog.AppendString(payload, sanitizeInstance(r.Instance))
		payload = binary.AppendUvarint(payload, uint64(len(r.Values)))
		prev := prevByClass[ci]
		if prev == nil || len(prev) != len(r.Values) {
			prev = make([]uint64, len(r.Values))
			prevByClass[ci] = prev
		}
		for i, v := range r.Values {
			payload = binary.AppendVarint(payload, int64(v-prev[i]))
			prev[i] = v
		}
	}
	payload = appendTrace(payload, s.Trace)

	out := framelog.AppendPreamble(make([]byte, 0, len(wireMagic)+1+len(payload)+4), wireMagic, uint64(V2Binary))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, framelog.Checksum(payload)), nil
}

// SniffWire reports the codec version of a wire message, or
// ErrUnknownWire for bytes in neither format.
func SniffWire(data []byte) (Version, error) {
	if len(data) == 0 {
		return VersionUnknown, ErrUnknownWire
	}
	if data[0] == '$' {
		return V1Text, nil
	}
	if len(data) >= len(wireMagic) && bytes.Equal(data[:len(wireMagic)], wireMagic[:]) {
		return V2Binary, nil
	}
	return VersionUnknown, ErrUnknownWire
}

// DecodeWire decodes one wire message against the consumer's registry,
// reporting the codec version the producer used.
func DecodeWire(data []byte, reg *schema.Registry) (model.Snapshot, Version, error) {
	s, v, _, err := DecodeWireLines(data, reg)
	return s, v, err
}

// DecodeWireLines is DecodeWire for a consumer that archives what it
// received. When a v1 text message's header matched reg and its record
// lines are canonical — all ASCII, "class instance values..." with one
// space between fields, no leading zero, and no mark, trace or blank
// line among them — lines is the slice of data that holds them: byte
// for byte what the text encoder writes for s.Records, so a v1 archive
// can store them as they arrived (SnapshotEncoder.WriteSnapshotLines).
// Otherwise lines is nil.
func DecodeWireLines(data []byte, reg *schema.Registry) (s model.Snapshot, v Version, lines []byte, err error) {
	if v, err = SniffWire(data); err != nil {
		return s, VersionUnknown, nil, err
	}
	if v == V1Text {
		s, lines, err = decodeWireText(data, reg)
		return s, V1Text, lines, err
	}
	s, err = decodeWireBinary(data, reg)
	return s, V2Binary, nil, err
}

func decodeWireBinary(data []byte, reg *schema.Registry) (model.Snapshot, error) {
	var zero model.Snapshot
	off, pre := framelog.CheckPreamble(data, wireMagic, uint64(V2Binary))
	if pre != framelog.PreambleOK {
		return zero, fmt.Errorf("codec: %s wire preamble", pre)
	}
	if len(data)-off < 4 {
		return zero, fmt.Errorf("codec: wire message too short for CRC")
	}
	payload := data[off : len(data)-4]
	if framelog.Checksum(payload) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return zero, fmt.Errorf("codec: wire CRC mismatch")
	}
	if len(payload) < 8 {
		return zero, fmt.Errorf("codec: wire message too short for fingerprint")
	}
	fp := binary.LittleEndian.Uint64(payload)
	c := framelog.Cursor{B: payload, Off: 8}
	if have := RegistryFingerprint(reg); fp != have {
		return zero, fmt.Errorf("%w: producer %016x, consumer %016x", ErrFingerprintMismatch, fp, have)
	}
	classes := reg.Classes()

	host, err := c.Str()
	if err != nil {
		return zero, fmt.Errorf("codec: wire hostname: %w", err)
	}
	ms, err := c.Varint()
	if err != nil {
		return zero, fmt.Errorf("codec: wire time: %w", err)
	}
	s := model.Snapshot{Time: float64(ms) / 1000, Host: host}

	njobs, err := c.Count(1)
	if err != nil {
		return zero, fmt.Errorf("codec: wire job count: %w", err)
	}
	for i := 0; i < njobs; i++ {
		j, err := c.Str()
		if err != nil {
			return zero, fmt.Errorf("codec: wire job id: %w", err)
		}
		s.JobIDs = append(s.JobIDs, j)
	}
	if s.Mark, err = c.Str(); err != nil {
		return zero, fmt.Errorf("codec: wire mark: %w", err)
	}

	nrec, err := c.Count(3)
	if err != nil {
		return zero, fmt.Errorf("codec: wire record count: %w", err)
	}
	prevByClass := make(map[uint64][]uint64)
	if nrec > 0 {
		s.Records = make([]model.Record, 0, nrec)
	}
	for i := 0; i < nrec; i++ {
		ci, err := c.Uvarint()
		if err != nil {
			return zero, fmt.Errorf("codec: wire record class: %w", err)
		}
		if ci >= uint64(len(classes)) {
			return zero, fmt.Errorf("codec: wire record class ref %d out of range", ci)
		}
		sch := reg.Get(classes[ci])
		inst, err := c.Str()
		if err != nil {
			return zero, fmt.Errorf("codec: wire record instance: %w", err)
		}
		nvals, err := c.Count(1)
		if err != nil {
			return zero, fmt.Errorf("codec: wire value count: %w", err)
		}
		if nvals != sch.Len() {
			return zero, fmt.Errorf("codec: class %q has %d values, schema wants %d",
				sch.Class, nvals, sch.Len())
		}
		prev := prevByClass[ci]
		if prev == nil || len(prev) != nvals {
			prev = make([]uint64, nvals)
			prevByClass[ci] = prev
		}
		vals := make([]uint64, nvals)
		for k := 0; k < nvals; k++ {
			d, err := c.Varint()
			if err != nil {
				return zero, fmt.Errorf("codec: wire value delta: %w", err)
			}
			prev[k] += uint64(d)
			vals[k] = prev[k]
		}
		s.Records = append(s.Records, model.Record{Class: sch.Class, Instance: inst, Values: vals})
	}
	if c.Len() != 0 {
		if s.Trace, err = readTrace(&c); err != nil {
			return zero, fmt.Errorf("codec: wire %w", err)
		}
	}
	if c.Len() != 0 {
		return zero, fmt.Errorf("codec: %d trailing bytes in wire message", c.Len())
	}
	return s, nil
}
