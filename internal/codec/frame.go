package codec

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/event"
)

// Frames are the unit of both network protocols (GED and replication):
//
//	u32 payload length (little endian) | u8 kind | payload
//
// A reader always knows how many bytes to consume before touching the
// payload, frames from one writer pipeline back to back, a torn frame is
// an unexpected EOF rather than a hang, and an announced length beyond
// the reader's limit is a protocol error before any allocation. Each
// protocol picks its own limit and kind numbering.
const frameHdr = 5

// FrameWriter serializes frames onto one side of a connection. It is not
// safe for concurrent use.
type FrameWriter struct {
	w     *bufio.Writer
	limit int
	hdr   [frameHdr]byte
}

// NewFrameWriter buffers frames of at most limit payload bytes onto w.
func NewFrameWriter(w io.Writer, limit int) *FrameWriter {
	return &FrameWriter{w: bufio.NewWriterSize(w, 64<<10), limit: limit}
}

// WriteFrame buffers one frame; Flush sends it.
func (fw *FrameWriter) WriteFrame(kind byte, payload []byte) error {
	if len(payload) > fw.limit {
		return Errorf("frame payload %d exceeds limit %d", len(payload), fw.limit)
	}
	binary.LittleEndian.PutUint32(fw.hdr[:4], uint32(len(payload)))
	fw.hdr[4] = kind
	if _, err := fw.w.Write(fw.hdr[:]); err != nil {
		return err
	}
	_, err := fw.w.Write(payload)
	return err
}

// Flush sends every buffered frame.
func (fw *FrameWriter) Flush() error { return fw.w.Flush() }

// Send writes one frame and flushes it.
func (fw *FrameWriter) Send(kind byte, payload []byte) error {
	if err := fw.WriteFrame(kind, payload); err != nil {
		return err
	}
	return fw.Flush()
}

// FrameReader reads frames of at most limit payload bytes.
type FrameReader struct {
	r     *bufio.Reader
	limit int
	buf   []byte
}

// NewFrameReader reads frames from r.
func NewFrameReader(r io.Reader, limit int) *FrameReader {
	return &FrameReader{r: bufio.NewReaderSize(r, 64<<10), limit: limit}
}

// ReadFrame reads the next frame. The payload is valid until the next
// call (the buffer is reused). A clean EOF between frames is io.EOF, an
// EOF inside one is io.ErrUnexpectedEOF.
func (fr *FrameReader) ReadFrame() (byte, []byte, error) {
	var hdr [frameHdr]byte
	if _, err := io.ReadFull(fr.r, hdr[:1]); err != nil {
		return 0, nil, err
	}
	if _, err := io.ReadFull(fr.r, hdr[1:]); err != nil {
		return 0, nil, unexpectedEOF(err)
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if uint64(n) > uint64(fr.limit) {
		return hdr[4], nil, Errorf("frame announces %d bytes (limit %d)", n, fr.limit)
	}
	if cap(fr.buf) < int(n) {
		fr.buf = make([]byte, n)
	}
	fr.buf = fr.buf[:n]
	if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
		return hdr[4], nil, unexpectedEOF(err)
	}
	return hdr[4], fr.buf, nil
}

func unexpectedEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Log records are the unit of every occurrence log (the GED contribution
// log and the detector's batch-replay log):
//
//	u32 payload length | u32 CRC-32 (IEEE) of payload | occurrence
//
// The length bound plus CRC let a reader tell a torn or corrupt tail from
// a clean end.
const (
	LogRecordHdr = 8
	maxLogRecord = 4 << 20
)

// AppendLogRecord appends occ as one log record.
func AppendLogRecord(b []byte, occ *event.Occurrence) ([]byte, error) {
	start := len(b)
	b = binary.LittleEndian.AppendUint64(b, 0) // header, filled in below
	b, err := AppendOccurrence(b, occ)
	if err != nil {
		return b[:start], err
	}
	payload := b[start+LogRecordHdr:]
	if len(payload) > maxLogRecord {
		return b[:start], fmt.Errorf("codec: log record of %d bytes exceeds limit %d", len(payload), maxLogRecord)
	}
	binary.LittleEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.ChecksumIEEE(payload))
	return b, nil
}

// ReadLogRecord reads one record's payload into buf (grown as needed) and
// returns it. A clean end is io.EOF, a torn record io.ErrUnexpectedEOF,
// and an oversized length or CRC mismatch an ErrProtocol error.
func ReadLogRecord(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [LogRecordHdr]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return buf, err
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return buf, unexpectedEOF(err)
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > maxLogRecord {
		return buf, Errorf("log record announces %d bytes (limit %d)", n, maxLogRecord)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, unexpectedEOF(err)
	}
	if crc32.ChecksumIEEE(buf) != binary.LittleEndian.Uint32(hdr[4:]) {
		return buf, Errorf("log record CRC mismatch")
	}
	return buf, nil
}
