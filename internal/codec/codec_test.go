package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"

	"repro/internal/event"
)

// fullOccurrence exercises every field and every atomic parameter type.
func fullOccurrence() *event.Occurrence {
	return &event.Occurrence{
		Name: "stock_drop", Kind: event.KindComposite, Class: "STOCK", Method: "set_price",
		Modifier: event.End, Object: 42, Seq: 7, Time: 1234, Txn: 99, App: "trader",
		Params: event.NewParams(
			"nil", nil, "b", true, "i", int(-5), "i8", int8(-8), "i16", int16(-16),
			"i32", int32(-32), "i64", int64(-64), "u", uint(5), "u8", uint8(8),
			"u16", uint16(16), "u32", uint32(32), "u64", uint64(64),
			"f32", float32(1.5), "f64", float64(2.5), "s", "hello", "oid", event.OID(7),
		),
		Constituents: []*event.Occurrence{
			{Name: "e1", Kind: event.KindExplicit, App: "a1", Params: event.NewParams("x", int(1))},
			{Name: "e2", Kind: event.KindExplicit, App: "a2",
				Constituents: []*event.Occurrence{{Name: "leaf"}}},
		},
	}
}

func TestOccurrenceRoundTrip(t *testing.T) {
	in := fullOccurrence()
	b, err := AppendOccurrence(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeOccurrence(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestObjectRoundTrip(t *testing.T) {
	attrs := map[string]any{"sym": "ACME", "qty": 10, "price": 5.5, "op": int64(3), "ref": event.OID(9)}
	b, err := AppendObject(nil, 4, "STOCK", attrs)
	if err != nil {
		t.Fatal(err)
	}
	oid, class, got, err := DecodeObject(b)
	if err != nil || oid != 4 || class != "STOCK" || !reflect.DeepEqual(got, attrs) {
		t.Fatalf("decode: oid=%d class=%q attrs=%v err=%v", oid, class, got, err)
	}
	// Equal objects encode to equal bytes, whatever the map order.
	for range 10 {
		again, _ := AppendObject(nil, 4, "STOCK", attrs)
		if !bytes.Equal(again, b) {
			t.Fatal("object encoding is not deterministic")
		}
	}
	if _, err := AppendObject(nil, 4, "STOCK", map[string]any{"lots": []int{1}}); err == nil {
		t.Fatal("encoded a non-atomic attribute")
	}
	if _, _, _, err := DecodeObject(AppendNames(nil, nil)); !errors.Is(err, ErrProtocol) {
		t.Fatalf("name map decoded as an object: %v", err)
	}
}

func TestNamesRoundTrip(t *testing.T) {
	in := map[string]uint64{"ACME": 1, "": 2, "IBM": 1 << 40}
	out, err := DecodeNames(AppendNames(nil, in))
	if err != nil || !reflect.DeepEqual(in, out) {
		t.Fatalf("names: %v %v", out, err)
	}
}

// Every truncation of a valid encoding is an ErrProtocol error, never a
// panic or a bogus success.
func TestTruncatedInputs(t *testing.T) {
	occ, err := AppendOccurrence(nil, fullOccurrence())
	if err != nil {
		t.Fatal(err)
	}
	obj, err := AppendObject(nil, 1, "STOCK", map[string]any{"a": "x", "b": 2.5, "c": uint16(3)})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(occ); cut++ {
		if _, err := DecodeOccurrence(occ[:cut]); !errors.Is(err, ErrProtocol) {
			t.Fatalf("occurrence cut at %d: %v", cut, err)
		}
	}
	for cut := 0; cut < len(obj); cut++ {
		if _, _, _, err := DecodeObject(obj[:cut]); !errors.Is(err, ErrProtocol) {
			t.Fatalf("object cut at %d: %v", cut, err)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf, 1<<10)
	if err := fw.WriteFrame(1, []byte("app")); err != nil {
		t.Fatal(err)
	}
	if err := fw.Send(9, nil); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&buf, 1<<10)
	kind, payload, err := fr.ReadFrame()
	if err != nil || kind != 1 || string(payload) != "app" {
		t.Fatalf("kind=%d payload=%q err=%v", kind, payload, err)
	}
	if kind, payload, err = fr.ReadFrame(); err != nil || kind != 9 || len(payload) != 0 {
		t.Fatalf("kind=%d len=%d err=%v", kind, len(payload), err)
	}
	if _, _, err = fr.ReadFrame(); err != io.EOF {
		t.Fatalf("want clean EOF between frames, got %v", err)
	}
}

// A frame cut off anywhere after its first byte is an unexpected EOF — a
// decode error, never a hang or a clean end-of-stream.
func TestFrameTorn(t *testing.T) {
	var buf bytes.Buffer
	payload, err := AppendOccurrence(nil, fullOccurrence())
	if err != nil {
		t.Fatal(err)
	}
	if err := NewFrameWriter(&buf, 1<<20).Send(3, payload); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for _, cut := range []int{1, 3, 5, len(whole) / 2, len(whole) - 1} {
		fr := NewFrameReader(bytes.NewReader(whole[:cut]), 1<<20)
		if _, _, err := fr.ReadFrame(); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: want ErrUnexpectedEOF, got %v", cut, err)
		}
	}
}

// A header announcing more than the reader's limit is rejected before any
// allocation or read of the body; the writer refuses to produce one.
func TestFrameOversized(t *testing.T) {
	const limit = 256<<10 + 64
	var hdr [frameHdr]byte
	binary.LittleEndian.PutUint32(hdr[:4], limit+1)
	fr := NewFrameReader(bytes.NewReader(hdr[:]), limit)
	if _, _, err := fr.ReadFrame(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("want ErrProtocol, got %v", err)
	}
	fw := NewFrameWriter(io.Discard, limit)
	if err := fw.WriteFrame(3, make([]byte, limit+1)); !errors.Is(err, ErrProtocol) {
		t.Fatalf("writer accepted oversized frame: %v", err)
	}
}

func TestLogRecords(t *testing.T) {
	var b []byte
	var err error
	for i := range 3 {
		occ := &event.Occurrence{Name: "e", Seq: uint64(i), Params: event.NewParams("i", i)}
		if b, err = AppendLogRecord(b, occ); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(b)
	var buf []byte
	for i := range 3 {
		if buf, err = ReadLogRecord(r, buf); err != nil {
			t.Fatal(err)
		}
		occ, err := DecodeOccurrence(buf)
		if err != nil || occ.Seq != uint64(i) {
			t.Fatalf("record %d: %+v %v", i, occ, err)
		}
	}
	if _, err := ReadLogRecord(r, buf); err != io.EOF {
		t.Fatalf("want clean EOF after the last record, got %v", err)
	}
	if _, err := ReadLogRecord(bytes.NewReader(b[:len(b)-1]), nil); err != nil {
		t.Fatalf("first record of a torn log: %v", err)
	}
	b[LogRecordHdr] ^= 0xff
	if _, err := ReadLogRecord(bytes.NewReader(b), nil); !errors.Is(err, ErrProtocol) {
		t.Fatalf("corrupt payload: want ErrProtocol, got %v", err)
	}
}

// FuzzDecode feeds arbitrary bytes to every decoder: a value, an
// occurrence, an object record, a name map, a frame stream and a log
// stream. Each must decode or fail with its documented error; whatever
// decodes must re-encode and decode to the same thing.
func FuzzDecode(f *testing.F) {
	v, _ := appendValue(nil, "x")
	occ, _ := AppendOccurrence(nil, fullOccurrence())
	obj, _ := AppendObject(nil, 3, "STOCK", map[string]any{"qty": 1, "sym": "A", "p": float32(2)})
	rec, _ := AppendLogRecord(nil, fullOccurrence())
	var frames bytes.Buffer
	_ = NewFrameWriter(&frames, 1<<10).Send(2, occ[:40])
	for _, seed := range [][]byte{nil, {0}, {0xff}, v, occ, obj, rec, frames.Bytes(),
		AppendNames(nil, map[string]uint64{"a": 1}), occ[:len(occ)/2], obj[:len(obj)-1]} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		protocol := func(what string, err error) {
			if err != nil && !errors.Is(err, ErrProtocol) {
				t.Fatalf("%s: error %v does not wrap ErrProtocol", what, err)
			}
		}
		r := NewReader(data)
		if val := r.Value(); r.Err() == nil {
			b, err := appendValue(nil, val)
			if err != nil {
				t.Fatalf("decoded value %#v does not re-encode: %v", val, err)
			}
			r2 := NewReader(b)
			if again := r2.Value(); r2.Done() != nil || !sameValue(val, again) {
				t.Fatalf("value %#v re-decoded as %#v (%v)", val, again, r2.Err())
			}
		} else {
			protocol("value", r.Err())
		}
		if o, err := DecodeOccurrence(data); err == nil {
			b, err := AppendOccurrence(nil, o)
			if err != nil {
				t.Fatalf("decoded occurrence does not re-encode: %v", err)
			}
			if again, err := DecodeOccurrence(b); err != nil || !bytes.Equal(mustOcc(t, again), b) {
				t.Fatalf("occurrence re-decode: %v", err)
			}
		} else {
			protocol("occurrence", err)
		}
		if oid, class, attrs, err := DecodeObject(data); err == nil {
			b, err := AppendObject(nil, oid, class, attrs)
			if err != nil {
				t.Fatalf("decoded object does not re-encode: %v", err)
			}
			oid2, class2, attrs2, err := DecodeObject(b)
			if err != nil || oid2 != oid || class2 != class || len(attrs2) != len(attrs) {
				t.Fatalf("object re-decode: %v", err)
			}
		} else {
			protocol("object", err)
		}
		_, err := DecodeNames(data)
		protocol("names", err)

		fr := NewFrameReader(bytes.NewReader(data), 1<<10)
		for {
			_, _, err := fr.ReadFrame()
			if err == nil {
				continue
			}
			if err != io.EOF && err != io.ErrUnexpectedEOF {
				protocol("frame", err)
			}
			break
		}
		lr := bytes.NewReader(data)
		var buf []byte
		for {
			if buf, err = ReadLogRecord(lr, buf); err == nil {
				continue
			}
			if err != io.EOF && err != io.ErrUnexpectedEOF {
				protocol("log record", err)
			}
			break
		}
	})
}

func mustOcc(t *testing.T, o *event.Occurrence) []byte {
	b, err := AppendOccurrence(nil, o)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sameValue is equality that treats NaNs with equal bits as equal.
func sameValue(a, b any) bool {
	if reflect.TypeOf(a) != reflect.TypeOf(b) {
		return false
	}
	switch x := a.(type) {
	case float32:
		return math.Float32bits(x) == math.Float32bits(b.(float32))
	case float64:
		return math.Float64bits(x) == math.Float64bits(b.(float64))
	}
	return a == b
}

// FuzzValueRoundTrip encodes every event.Atomic kind built from the
// fuzzed inputs and requires each to decode as the same concrete Go type
// and value.
func FuzzValueRoundTrip(f *testing.F) {
	f.Add(int64(0), 0.0, "", false)
	f.Add(int64(-1), -0.5, "héllo", true)
	f.Add(int64(math.MaxInt64), math.Inf(1), "\x00\xff", false)
	f.Add(int64(math.MinInt64), math.NaN(), "a", true)
	f.Fuzz(func(t *testing.T, i int64, fl float64, s string, bo bool) {
		if len(s) > MaxString {
			s = s[:MaxString]
		}
		u := uint64(i)
		vals := []any{nil, bo, int(i), int8(i), int16(i), int32(i), i,
			uint(u), uint8(u), uint16(u), uint32(u), u,
			float32(fl), fl, s, event.OID(u)}
		for _, v := range vals {
			if !event.Atomic(v) {
				t.Fatalf("%T is not atomic", v)
			}
			b, err := appendValue(nil, v)
			if err != nil {
				t.Fatalf("encode %#v: %v", v, err)
			}
			r := NewReader(b)
			if got := r.Value(); r.Done() != nil || !sameValue(v, got) {
				t.Fatalf("%#v (%T) decoded as %#v (%T), err %v", v, v, got, got, r.Err())
			}
		}
	})
}
