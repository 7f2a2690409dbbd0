package codec

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Heap record tags: the first byte of every record the object and query
// layers keep in the storage heap, so a scan can tell the record kinds
// apart without decoding them. The object catalog's fixed meta record
// starts with the ASCII magic "SENTOBJ1" and so never collides.
const (
	TagObject  byte = 0xD0 // object: OID, class, attributes
	TagNames   byte = 0xD1 // object name map: name -> OID
	TagEntry   byte = 0xD8 // secondary-index posting
	TagCatalog byte = 0xD9 // secondary-index definitions
	maxAttrs        = 1 << 12
	maxNames        = 1 << 24
)

// AppendObject appends an object record:
//
//	TagObject | uvarint OID | string class | uvarint n | n × (string name | value)
//
// Attributes are written in name order, so equal objects encode to equal
// bytes. A non-atomic attribute value is an error.
func AppendObject(b []byte, oid uint64, class string, attrs map[string]any) ([]byte, error) {
	if len(attrs) > maxAttrs {
		return b, fmt.Errorf("codec: %d attributes exceed limit %d", len(attrs), maxAttrs)
	}
	b = append(b, TagObject)
	b = binary.AppendUvarint(b, oid)
	b = AppendString(b, class)
	b = binary.AppendUvarint(b, uint64(len(attrs)))
	names := make([]string, 0, len(attrs))
	for k := range attrs {
		names = append(names, k)
	}
	slices.Sort(names)
	var err error
	for _, k := range names {
		b = AppendString(b, k)
		if b, err = appendValue(b, attrs[k]); err != nil {
			return b, fmt.Errorf("attribute %q: %w", k, err)
		}
	}
	return b, nil
}

// DecodeObject decodes a record written by AppendObject. Any other record
// kind, like malformed input, is an ErrProtocol error.
func DecodeObject(data []byte) (oid uint64, class string, attrs map[string]any, err error) {
	r := NewReader(data)
	if r.Byte() != TagObject {
		return 0, "", nil, Errorf("not an object record")
	}
	oid, class = r.Uvarint(), r.Str()
	n := r.Count("attributes", maxAttrs)
	attrs = make(map[string]any, n)
	for range n {
		k := r.Str()
		attrs[k] = r.Value()
	}
	if err := r.Done(); err != nil {
		return 0, "", nil, err
	}
	return oid, class, attrs, nil
}

// AppendNames appends the object name map record:
//
//	TagNames | uvarint n | n × (string name | uvarint OID)
//
// in name order.
func AppendNames(b []byte, names map[string]uint64) []byte {
	keys := make([]string, 0, len(names))
	for k := range names {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = append(b, TagNames)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = AppendString(b, k)
		b = binary.AppendUvarint(b, names[k])
	}
	return b
}

// DecodeNames decodes a record written by AppendNames.
func DecodeNames(data []byte) (map[string]uint64, error) {
	r := NewReader(data)
	if r.Byte() != TagNames {
		return nil, Errorf("not a name map record")
	}
	n := r.Count("names", maxNames)
	names := make(map[string]uint64, n)
	for range n {
		k := r.Str()
		names[k] = r.Uvarint()
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return names, nil
}
