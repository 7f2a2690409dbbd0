package ged

import (
	"encoding/binary"
	"fmt"

	"repro/internal/codec"
	"repro/internal/event"
)

// Wire protocol: every message is one internal/codec frame (u32 length |
// u8 kind | payload) of at most maxFrame bytes. Payload integers are
// unsigned varints, strings are varint-length prefixed, and occurrences
// use the codec's tagged occurrence layout. See DESIGN.md §16 for the
// codec and §13 for the frame kinds.

// protoVersion is the wire protocol generation; Hello carries it and the
// server rejects mismatches so both ends fail loudly instead of
// misparsing frames.
const protoVersion = 1

// Frame and payload hard limits. A frame that announces more than
// maxFrame bytes is a protocol error (the connection is dropped before
// any allocation); the codec's element limits bound what a single
// decoded occurrence can make the server allocate.
const (
	maxFrame = 4 << 20 // bytes in one frame payload
	maxBatch = 1 << 16 // occurrences in one contribute frame
)

// Frame kinds.
const (
	frHello         byte = iota + 1 // client → server: version, app name
	frHelloAck                      // server → client: version, partition, log end
	frContribute                    // client → server: seq, occurrence batch
	frContributeAck                 // server → client: seq, log end offset
	frSubscribe                     // client → server: id, event, ctx, mode, offset
	frSubscribeAck                  // server → client: id, log end offset
	frNotify                        // server → client: id, occurrence (live detector)
	frStream                        // server → client: id, offset, occurrence (log replay/tail)
	frError                         // server → client: protocol error message, then close
	frGoodbye                       // server → client: draining, stop sending
)

// ErrProtocol reports a malformed or oversized frame (the shared
// codec.ErrProtocol); connections are closed on first occurrence.
var ErrProtocol = codec.ErrProtocol

func protoErrf(format string, args ...any) error {
	return fmt.Errorf("ged: %w", codec.Errorf(format, args...))
}

// --- frame payload builders -------------------------------------------------

func encodeHello(app string) []byte {
	b := make([]byte, 0, len(app)+4)
	b = append(b, protoVersion)
	return codec.AppendString(b, app)
}

func decodeHello(payload []byte) (app string, err error) {
	p := codec.NewReader(payload)
	if ver := p.Byte(); p.Err() == nil && ver != protoVersion {
		return "", protoErrf("peer speaks protocol v%d, this end v%d", ver, protoVersion)
	}
	app = p.Str()
	return app, p.Err()
}

func encodeHelloAck(partition, partitions int, logEnd uint64) []byte {
	b := make([]byte, 0, 16)
	b = append(b, protoVersion)
	b = binary.AppendUvarint(b, uint64(partition))
	b = binary.AppendUvarint(b, uint64(partitions))
	return binary.AppendUvarint(b, logEnd)
}

func decodeHelloAck(payload []byte) (partition, partitions int, logEnd uint64, err error) {
	p := codec.NewReader(payload)
	if ver := p.Byte(); p.Err() == nil && ver != protoVersion {
		return 0, 0, 0, protoErrf("server speaks protocol v%d, this end v%d", ver, protoVersion)
	}
	partition, partitions, logEnd = int(p.Uvarint()), int(p.Uvarint()), p.Uvarint()
	return partition, partitions, logEnd, p.Err()
}

// encodeContribute frames a batch under one client-assigned ack sequence
// number (0 = no ack requested).
func encodeContribute(buf []byte, seq uint64, occs []event.Occurrence) ([]byte, error) {
	b := binary.AppendUvarint(buf[:0], seq)
	b = binary.AppendUvarint(b, uint64(len(occs)))
	var err error
	for i := range occs {
		if b, err = codec.AppendOccurrence(b, &occs[i]); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// decodeContribute appends the batch to dst and returns it with the seq.
func decodeContribute(payload []byte, dst []event.Occurrence) (uint64, []event.Occurrence, error) {
	p := codec.NewReader(payload)
	seq := p.Uvarint()
	n := p.Count("occurrences", maxBatch)
	for i := 0; i < n && p.Err() == nil; i++ {
		if occ := p.Occurrence(); occ != nil {
			dst = append(dst, *occ)
		}
	}
	if err := p.Done(); err != nil {
		return 0, dst, err
	}
	return seq, dst, nil
}

func encodeContributeAck(seq, offset uint64) []byte {
	b := make([]byte, 0, 20)
	b = binary.AppendUvarint(b, seq)
	return binary.AppendUvarint(b, offset)
}

func decodeContributeAck(payload []byte) (seq, offset uint64, err error) {
	p := codec.NewReader(payload)
	seq, offset = p.Uvarint(), p.Uvarint()
	return seq, offset, p.Err()
}

// Subscription modes: live routes through the server's detector (the
// composite-event path); stream replays the durable contribution log
// from an offset and then follows its tail (the at-least-once path).
const (
	subLive   = 0
	subStream = 1
)

func encodeSubscribe(id uint32, eventName string, ctx int, mode byte, from uint64) []byte {
	b := make([]byte, 0, len(eventName)+24)
	b = binary.AppendUvarint(b, uint64(id))
	b = codec.AppendString(b, eventName)
	b = binary.AppendUvarint(b, uint64(ctx))
	b = append(b, mode)
	return binary.AppendUvarint(b, from)
}

func decodeSubscribe(payload []byte) (id uint32, eventName string, ctx int, mode byte, from uint64, err error) {
	p := codec.NewReader(payload)
	id, eventName, ctx, mode, from = uint32(p.Uvarint()), p.Str(), int(p.Uvarint()), p.Byte(), p.Uvarint()
	return id, eventName, ctx, mode, from, p.Err()
}

func encodeSubscribeAck(id uint32, logEnd uint64) []byte {
	b := make([]byte, 0, 16)
	b = binary.AppendUvarint(b, uint64(id))
	return binary.AppendUvarint(b, logEnd)
}

func decodeSubscribeAck(payload []byte) (id uint32, logEnd uint64, err error) {
	p := codec.NewReader(payload)
	id, logEnd = uint32(p.Uvarint()), p.Uvarint()
	return id, logEnd, p.Err()
}

func encodeNotify(buf []byte, id uint32, ctx int, occ *event.Occurrence) ([]byte, error) {
	b := binary.AppendUvarint(buf[:0], uint64(id))
	b = binary.AppendUvarint(b, uint64(ctx))
	return codec.AppendOccurrence(b, occ)
}

func decodeNotify(payload []byte) (id uint32, ctx int, occ *event.Occurrence, err error) {
	p := codec.NewReader(payload)
	id, ctx, occ = uint32(p.Uvarint()), int(p.Uvarint()), p.Occurrence()
	return id, ctx, occ, p.Err()
}

func encodeStream(buf []byte, id uint32, offset uint64, occ *event.Occurrence) ([]byte, error) {
	b := binary.AppendUvarint(buf[:0], uint64(id))
	b = binary.AppendUvarint(b, offset)
	return codec.AppendOccurrence(b, occ)
}

func decodeStream(payload []byte) (id uint32, offset uint64, occ *event.Occurrence, err error) {
	p := codec.NewReader(payload)
	id, offset, occ = uint32(p.Uvarint()), p.Uvarint(), p.Occurrence()
	return id, offset, occ, p.Err()
}

func encodeError(msg string) []byte {
	if len(msg) > codec.MaxString {
		msg = msg[:codec.MaxString]
	}
	return codec.AppendString(make([]byte, 0, len(msg)+4), msg)
}

func decodeError(payload []byte) (string, error) {
	p := codec.NewReader(payload)
	msg := p.Str()
	return msg, p.Err()
}
