// Package codec is the one binary encoding every Sentinel layer shares:
// type-tagged atomic values, event occurrences built from them,
// length-prefixed protocol frames, CRC-checked log records, and the
// object layer's heap records. The value set is the paper's atomic
// parameter set (§2.3), so object attributes, event parameters, GED wire
// payloads and recorded event logs all round-trip through the same tag
// table and come back as the same concrete Go type.
//
// Every decoder is bounds-checked: truncated, oversized or unknown input
// is reported as an error wrapping ErrProtocol, never a panic. See
// DESIGN.md §16 for the byte layouts and which package uses which.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/event"
)

// ErrProtocol reports malformed, truncated or oversized input. The GED
// and replication protocols export it as their own ErrProtocol.
var ErrProtocol = errors.New("protocol error")

// Errorf returns an error wrapping ErrProtocol.
func Errorf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrProtocol, fmt.Sprintf(format, args...))
}

// Decode limits: what one decoded string or occurrence can make a reader
// allocate.
const (
	MaxString       = 64 << 10
	maxParams       = 1 << 10
	maxConstituents = 1 << 16
	maxDepth        = 32 // constituent nesting of one occurrence
)

// Value type tags. The tag preserves the concrete Go type of an any-typed
// value (rule conditions type-assert on parameters and attributes, so int
// must come back as int, not int64).
const (
	tagNil = iota
	tagBool
	tagInt
	tagInt8
	tagInt16
	tagInt32
	tagInt64
	tagUint
	tagUint8
	tagUint16
	tagUint32
	tagUint64
	tagFloat32
	tagFloat64
	tagString
	tagOID
)

// AppendString appends a uvarint length and the bytes of s.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendValue appends one tagged value. Values outside event.Atomic's set
// are rejected.
func appendValue(b []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(b, tagNil), nil
	case bool:
		if x {
			return append(b, tagBool, 1), nil
		}
		return append(b, tagBool, 0), nil
	case int:
		return binary.AppendVarint(append(b, tagInt), int64(x)), nil
	case int8:
		return binary.AppendVarint(append(b, tagInt8), int64(x)), nil
	case int16:
		return binary.AppendVarint(append(b, tagInt16), int64(x)), nil
	case int32:
		return binary.AppendVarint(append(b, tagInt32), int64(x)), nil
	case int64:
		return binary.AppendVarint(append(b, tagInt64), x), nil
	case uint:
		return binary.AppendUvarint(append(b, tagUint), uint64(x)), nil
	case uint8:
		return binary.AppendUvarint(append(b, tagUint8), uint64(x)), nil
	case uint16:
		return binary.AppendUvarint(append(b, tagUint16), uint64(x)), nil
	case uint32:
		return binary.AppendUvarint(append(b, tagUint32), uint64(x)), nil
	case uint64:
		return binary.AppendUvarint(append(b, tagUint64), x), nil
	case float32:
		return binary.LittleEndian.AppendUint32(append(b, tagFloat32), math.Float32bits(x)), nil
	case float64:
		return binary.LittleEndian.AppendUint64(append(b, tagFloat64), math.Float64bits(x)), nil
	case string:
		if len(x) > MaxString {
			return b, fmt.Errorf("codec: string of %d bytes exceeds limit %d", len(x), MaxString)
		}
		return AppendString(append(b, tagString), x), nil
	case event.OID:
		return binary.AppendUvarint(append(b, tagOID), uint64(x)), nil
	default:
		return b, fmt.Errorf("codec: non-atomic value %T", v)
	}
}

// AppendOccurrence appends one occurrence, recursing into constituents
// (composite notifications carry their full parameter tree).
func AppendOccurrence(b []byte, occ *event.Occurrence) ([]byte, error) {
	return appendOccurrence(b, occ, 0)
}

func appendOccurrence(b []byte, occ *event.Occurrence, depth int) ([]byte, error) {
	if depth > maxDepth {
		return b, fmt.Errorf("codec: occurrence nesting exceeds %d", maxDepth)
	}
	if len(occ.Params) > maxParams {
		return b, fmt.Errorf("codec: %d parameters exceed limit %d", len(occ.Params), maxParams)
	}
	if len(occ.Constituents) > maxConstituents {
		return b, fmt.Errorf("codec: %d constituents exceed limit %d", len(occ.Constituents), maxConstituents)
	}
	b = AppendString(b, occ.Name)
	b = append(b, byte(occ.Kind))
	b = AppendString(b, occ.Class)
	b = AppendString(b, occ.Method)
	b = append(b, byte(occ.Modifier))
	b = binary.AppendUvarint(b, uint64(occ.Object))
	b = binary.AppendUvarint(b, occ.Seq)
	b = binary.AppendUvarint(b, occ.Time)
	b = binary.AppendUvarint(b, occ.Txn)
	b = AppendString(b, occ.App)
	b = binary.AppendUvarint(b, uint64(len(occ.Params)))
	var err error
	for _, p := range occ.Params {
		b = AppendString(b, p.Name)
		if b, err = appendValue(b, p.Value); err != nil {
			return b, err
		}
	}
	b = binary.AppendUvarint(b, uint64(len(occ.Constituents)))
	for _, c := range occ.Constituents {
		if b, err = appendOccurrence(b, c, depth+1); err != nil {
			return b, err
		}
	}
	return b, nil
}

// Reader decodes a payload with bounds checks. The first failure
// (truncation, a bad varint, an over-limit count) is kept and reported by
// Err; after it every getter returns a zero value, so a decoder can read
// a whole layout and check Err once.
type Reader struct {
	b   []byte
	pos int
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decode failure, wrapping ErrProtocol.
func (r *Reader) Err() error { return r.err }

// Remaining reports the undecoded byte count.
func (r *Reader) Remaining() int { return len(r.b) - r.pos }

// Done returns Err, or an error if undecoded bytes remain.
func (r *Reader) Done() error {
	if r.err == nil && r.Remaining() != 0 {
		r.fail("%d trailing bytes", r.Remaining())
	}
	return r.err
}

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = Errorf(format, args...)
		r.pos = len(r.b)
	}
}

// next consumes n bytes, or fails.
func (r *Reader) next(n int, what string) []byte {
	if r.Remaining() < n {
		r.fail("%s overruns payload at byte %d", what, r.pos)
		return nil
	}
	r.pos += n
	return r.b[r.pos-n : r.pos]
}

// Byte decodes one byte.
func (r *Reader) Byte() byte {
	if b := r.next(1, "byte"); b != nil {
		return b[0]
	}
	return 0
}

// Uvarint decodes an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		r.fail("bad uvarint at byte %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

// Varint decodes a signed varint.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.b[r.pos:])
	if n <= 0 {
		r.fail("bad varint at byte %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

// Str decodes a length-prefixed string of at most MaxString bytes.
func (r *Reader) Str() string {
	n := r.Uvarint()
	if n > MaxString {
		r.fail("string of %d bytes exceeds limit %d", n, MaxString)
		return ""
	}
	return string(r.next(int(n), "string"))
}

// Value decodes one tagged value as its original concrete type.
func (r *Reader) Value() any {
	switch tag := r.Byte(); {
	case r.err != nil:
		return nil
	case tag == tagNil:
		return nil
	case tag == tagBool:
		return r.Byte() != 0
	case tag == tagInt:
		return int(r.Varint())
	case tag == tagInt8:
		return int8(r.Varint())
	case tag == tagInt16:
		return int16(r.Varint())
	case tag == tagInt32:
		return int32(r.Varint())
	case tag == tagInt64:
		return r.Varint()
	case tag == tagUint:
		return uint(r.Uvarint())
	case tag == tagUint8:
		return uint8(r.Uvarint())
	case tag == tagUint16:
		return uint16(r.Uvarint())
	case tag == tagUint32:
		return uint32(r.Uvarint())
	case tag == tagUint64:
		return r.Uvarint()
	case tag == tagFloat32:
		if b := r.next(4, "float32"); b != nil {
			return math.Float32frombits(binary.LittleEndian.Uint32(b))
		}
		return float32(0)
	case tag == tagFloat64:
		if b := r.next(8, "float64"); b != nil {
			return math.Float64frombits(binary.LittleEndian.Uint64(b))
		}
		return float64(0)
	case tag == tagString:
		return r.Str()
	case tag == tagOID:
		return event.OID(r.Uvarint())
	default:
		r.fail("unknown value tag %d", tag)
		return nil
	}
}

// Count decodes an element count, failing when it exceeds limit or the
// bytes left (every element takes at least one byte).
func (r *Reader) Count(what string, limit int) int {
	n := r.Uvarint()
	if n > uint64(limit) || n > uint64(r.Remaining()) {
		r.fail("%d %s exceed limit %d or overrun payload", n, what, limit)
		return 0
	}
	return int(n)
}

// Occurrence decodes one occurrence and its constituents; nil on failure.
func (r *Reader) Occurrence() *event.Occurrence {
	return r.occurrence(0)
}

func (r *Reader) occurrence(depth int) *event.Occurrence {
	if depth > maxDepth {
		r.fail("occurrence nesting exceeds %d", maxDepth)
		return nil
	}
	occ := &event.Occurrence{
		Name: r.Str(), Kind: event.Kind(r.Byte()), Class: r.Str(), Method: r.Str(),
		Modifier: event.Modifier(r.Byte()), Object: event.OID(r.Uvarint()),
		Seq: r.Uvarint(), Time: r.Uvarint(), Txn: r.Uvarint(), App: r.Str(),
	}
	if n := r.Count("parameters", maxParams); n > 0 {
		occ.Params = make(event.ParamList, n)
		for i := range occ.Params {
			occ.Params[i] = event.Param{Name: r.Str(), Value: r.Value()}
		}
	}
	if n := r.Count("constituents", maxConstituents); n > 0 {
		occ.Constituents = make([]*event.Occurrence, n)
		for i := 0; i < n && r.err == nil; i++ {
			occ.Constituents[i] = r.occurrence(depth + 1)
		}
	}
	if r.err != nil {
		return nil
	}
	return occ
}

// DecodeOccurrence decodes b as exactly one occurrence.
func DecodeOccurrence(b []byte) (*event.Occurrence, error) {
	r := NewReader(b)
	occ := r.Occurrence()
	return occ, r.Done()
}
