package ged

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/codec"
	"repro/internal/event"
)

// EventLog is the GED's durable contribution log: an append-only,
// segmented record of every occurrence the server accepted, addressed by
// a dense uint64 offset (0, 1, 2, …). It follows the WAL's segment and
// fsync discipline from internal/storage — buffered appends, an explicit
// flush boundary per contribute batch, optional fsync behind a durable
// watermark, and torn-tail truncation on open — but stores occurrences
// as codec log records, the same format the detector's batch-replay
// log uses.
//
// Readers follow the log through LogReader cursors: sequential decode
// with segment hand-off, blocking on the log's condition variable at the
// tail. That pull model is what makes subscribe-from-offset replay
// naturally backpressured — a slow subscriber reads the log at its own
// pace instead of growing a server-side queue.
type EventLog struct {
	dir      string
	segBytes int64
	fsync    bool

	mu      sync.Mutex
	cond    *sync.Cond
	segs    []logSegment // sealed segments, ascending base offset
	active  *os.File
	actBase uint64 // first offset of the active segment
	actN    uint64 // records in the active segment
	actSize int64  // bytes written (and flushed) to the active segment
	end     uint64 // next offset to assign; records < end are readable
	durable uint64 // offsets < durable are fsynced
	closed  bool
}

// logSegment is one sealed (no longer appended) segment file.
type logSegment struct {
	base  uint64 // offset of its first record
	count uint64 // records it holds
	path  string
}

// Log file layout. Each segment file is
//
//	"GEDLOG01" | records…
//
// named <base offset, 16 hex digits>.seg, and each record is one codec
// log record (u32 length | u32 CRC | occurrence). The CRC plus length
// bound lets open detect a torn tail (crash mid-append) and truncate it,
// exactly like the storage WAL treats zero or short tails as torn.
const (
	logMagic      = "GEDLOG01"
	defSegBytes   = 8 << 20
	logSegPattern = "%016x.seg"
)

// errLogClosed reports reads or appends on a closed log.
var errLogClosed = errors.New("ged: event log closed")

// OpenEventLog opens (or creates) the log in dir. segBytes bounds
// segment file size before rolling (0 = 8 MiB default); fsync makes every
// append batch durable before it is acknowledged.
func OpenEventLog(dir string, segBytes int64, fsync bool) (*EventLog, error) {
	if segBytes <= 0 {
		segBytes = defSegBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ged: event log dir: %w", err)
	}
	l := &EventLog{dir: dir, segBytes: segBytes, fsync: fsync}
	l.cond = sync.NewCond(&l.mu)
	if err := l.scan(); err != nil {
		return nil, err
	}
	return l, nil
}

// scan inventories segment files, recovers the record count of the last
// one (truncating a torn tail), and opens it for appending.
func (l *EventLog) scan() error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("ged: event log scan: %w", err)
	}
	var bases []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".seg") || len(name) != 20 {
			continue
		}
		base, err := strconv.ParseUint(strings.TrimSuffix(name, ".seg"), 16, 64)
		if err != nil {
			continue
		}
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	if len(bases) == 0 {
		return l.startSegment(0)
	}
	// Sealed segments: count = next base − base. The last segment's count
	// (and any torn tail) comes from a scan.
	for i, base := range bases[:len(bases)-1] {
		l.segs = append(l.segs, logSegment{
			base:  base,
			count: bases[i+1] - base,
			path:  l.segPath(base),
		})
	}
	last := bases[len(bases)-1]
	count, good, err := scanSegment(l.segPath(last))
	if err != nil {
		return err
	}
	f, err := os.OpenFile(l.segPath(last), os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("ged: event log open: %w", err)
	}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return fmt.Errorf("ged: event log truncate torn tail: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return err
	}
	l.active = f
	l.actBase = last
	l.actN = count
	l.actSize = good
	l.end = last + count
	l.durable = l.end
	return nil
}

func (l *EventLog) segPath(base uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf(logSegPattern, base))
}

// scanSegment walks a segment file and returns how many intact records
// it holds and the byte offset just past the last intact record. A bad
// magic is fatal; a torn or corrupt tail record just ends the scan.
func scanSegment(path string) (count uint64, good int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("ged: event log open: %w", err)
	}
	defer f.Close()
	var magic [len(logMagic)]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil || string(magic[:]) != logMagic {
		return 0, 0, fmt.Errorf("ged: %s: bad segment magic", path)
	}
	good = int64(len(logMagic))
	var buf []byte
	for {
		// Any read error ends the scan: a clean end, or a torn or
		// corrupt tail that open truncates.
		if buf, err = codec.ReadLogRecord(f, buf); err != nil {
			return count, good, nil
		}
		good += codec.LogRecordHdr + int64(len(buf))
		count++
	}
}

// startSegment creates the segment whose first record is offset base and
// makes it active. Caller holds mu (or is in single-threaded open).
func (l *EventLog) startSegment(base uint64) error {
	f, err := os.OpenFile(l.segPath(base), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("ged: event log segment: %w", err)
	}
	if _, err := f.Write([]byte(logMagic)); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	// Syncing the file makes its contents durable but not its name: until
	// the directory entry is fsynced, a crash can forget the segment ever
	// existed, leaving a replay hole after the previous sealed segment.
	if err := syncDirEntry(l.dir); err != nil {
		f.Close()
		return err
	}
	l.active = f
	l.actBase = base
	l.actN = 0
	l.actSize = int64(len(logMagic))
	l.end = base
	return nil
}

// roll seals the active segment and starts the next one. Caller holds mu.
func (l *EventLog) roll() error {
	if err := l.active.Sync(); err != nil {
		return err
	}
	if err := l.active.Close(); err != nil {
		return err
	}
	l.segs = append(l.segs, logSegment{base: l.actBase, count: l.actN, path: l.segPath(l.actBase)})
	return l.startSegment(l.actBase + l.actN)
}

// Append encodes and appends the batch, returning the offset of its
// first record. The batch becomes readable (and tail followers wake)
// before Append returns; with fsync enabled it is also durable.
func (l *EventLog) Append(occs []event.Occurrence) (first uint64, err error) {
	if len(occs) == 0 {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.end, nil
	}
	var rec []byte
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, errLogClosed
	}
	first = l.end
	for i := range occs {
		if l.actSize >= l.segBytes {
			if err := l.roll(); err != nil {
				return 0, err
			}
		}
		if rec, err = codec.AppendLogRecord(rec[:0], &occs[i]); err != nil {
			return 0, err
		}
		if _, err := l.active.Write(rec); err != nil {
			return 0, fmt.Errorf("ged: event log append: %w", err)
		}
		l.actSize += int64(len(rec))
		l.actN++
		l.end++
	}
	if l.fsync {
		if err := l.active.Sync(); err != nil {
			return 0, fmt.Errorf("ged: event log fsync: %w", err)
		}
		l.durable = l.end
	}
	l.cond.Broadcast()
	return first, nil
}

// End returns the next offset to be assigned (records < End are readable).
func (l *EventLog) End() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.end
}

// Durable returns the fsynced watermark (== End when fsync is enabled
// and no append is in flight; trails End otherwise).
func (l *EventLog) Durable() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

// Sync forces the active segment to disk and advances the durable
// watermark — the explicit boundary for logs running without per-append
// fsync.
func (l *EventLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errLogClosed
	}
	if err := l.active.Sync(); err != nil {
		return err
	}
	l.durable = l.end
	return nil
}

// WaitFor blocks until offset is readable (end > offset) or the log
// closes; it reports whether the offset became readable.
func (l *EventLog) WaitFor(offset uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.end <= offset && !l.closed {
		l.cond.Wait()
	}
	return l.end > offset
}

// Close seals the log and wakes every waiting reader.
func (l *EventLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	l.cond.Broadcast()
	if l.active == nil {
		return nil
	}
	if err := l.active.Sync(); err != nil {
		l.active.Close()
		return err
	}
	l.durable = l.end
	return l.active.Close()
}

// locate returns the path and base of the segment holding offset, or
// ok=false when the offset is past the end. Caller holds mu.
func (l *EventLog) locate(offset uint64) (path string, base uint64, ok bool) {
	if offset >= l.end {
		return "", 0, false
	}
	if offset >= l.actBase {
		return l.segPath(l.actBase), l.actBase, true
	}
	i := sort.Search(len(l.segs), func(i int) bool {
		return l.segs[i].base+l.segs[i].count > offset
	})
	if i == len(l.segs) {
		return "", 0, false
	}
	return l.segs[i].path, l.segs[i].base, true
}

// LogReader is a sequential cursor over the log from a starting offset.
// It is owned by one goroutine (each stream subscription runs its own).
type LogReader struct {
	log  *EventLog
	next uint64 // offset of the record Next returns
	f    *os.File
	base uint64 // base offset of the open segment
	pos  uint64 // next record index within the open segment
	buf  []byte
}

// ReaderAt opens a cursor positioned at offset. Offsets at or past the
// end are valid: Next will block (via WaitFor) until appends catch up.
func (l *EventLog) ReaderAt(offset uint64) *LogReader {
	return &LogReader{log: l, next: offset}
}

// Offset returns the offset the next Next call will deliver.
func (r *LogReader) Offset() uint64 { return r.next }

// Close releases the cursor's file handle.
func (r *LogReader) Close() {
	if r.f != nil {
		r.f.Close()
		r.f = nil
	}
}

// open positions the cursor's file handle at r.next, skipping records
// from the segment base (sequential readers pay this once per segment).
func (r *LogReader) open() error {
	r.Close()
	r.log.mu.Lock()
	path, base, ok := r.log.locate(r.next)
	r.log.mu.Unlock()
	if !ok {
		return io.EOF
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	var magic [len(logMagic)]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil || string(magic[:]) != logMagic {
		f.Close()
		return fmt.Errorf("ged: %s: bad segment magic", path)
	}
	r.f, r.base, r.pos = f, base, base
	for r.pos < r.next {
		if _, err := r.readRecord(); err != nil {
			f.Close()
			r.f = nil
			return fmt.Errorf("ged: event log seek to %d: %w", r.next, err)
		}
	}
	return nil
}

// readRecord reads and validates the record at r.pos from the open file.
func (r *LogReader) readRecord() ([]byte, error) {
	buf, err := codec.ReadLogRecord(r.f, r.buf)
	r.buf = buf
	if err != nil {
		return nil, fmt.Errorf("ged: log record at offset %d: %w", r.pos, err)
	}
	r.pos++
	return buf, nil
}

// Next returns the occurrence at the cursor and its offset, blocking at
// the tail until an append arrives. It returns errLogClosed once the log
// closes and the cursor has drained everything readable.
func (r *LogReader) Next() (*event.Occurrence, uint64, error) {
	if !r.log.WaitFor(r.next) {
		return nil, 0, errLogClosed
	}
	if r.f == nil || r.pos != r.next {
		if err := r.open(); err != nil {
			return nil, 0, err
		}
	}
	payload, err := r.readRecord()
	if err != nil {
		// The active segment may have rolled under us, or the flushed tail
		// isn't visible through this handle yet: reopen once at the cursor.
		if err2 := r.open(); err2 != nil {
			return nil, 0, err2
		}
		if payload, err = r.readRecord(); err != nil {
			return nil, 0, err
		}
	}
	occ, err := codec.DecodeOccurrence(payload)
	if err != nil {
		return nil, 0, err
	}
	off := r.next
	r.next++
	return occ, off, nil
}

// syncDirEntry fsyncs a directory, making a freshly created segment's
// directory entry durable — fsyncing the file alone does not cover its
// name.
func syncDirEntry(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}
