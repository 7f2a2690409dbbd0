package detector

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/codec"
	"repro/internal/event"
)

// EventLog records primitive event occurrences so composite events can be
// detected in batch mode, after the fact, over exactly the same graph that
// online detection uses (§2.1 "online and batch detection of events").
// Each occurrence is one codec log record, the format the GED
// contribution log uses, so batch replay and GED replay read one format.
type EventLog struct {
	w   io.Writer
	buf []byte
	n   int
	err error // first Recorder append error; sticky
}

// NewEventLog creates a log writing to w.
func NewEventLog(w io.Writer) *EventLog {
	return &EventLog{w: w}
}

// Append records one primitive occurrence.
func (l *EventLog) Append(occ *event.Occurrence) error {
	if occ.IsComposite() {
		return errors.New("detector: composite occurrences are not logged")
	}
	rec, err := codec.AppendLogRecord(l.buf[:0], occ)
	l.buf = rec
	if err == nil {
		_, err = l.w.Write(rec)
	}
	if err != nil {
		return fmt.Errorf("detector: append event log: %w", err)
	}
	l.n++
	return nil
}

// Len returns the number of occurrences appended.
func (l *EventLog) Len() int { return l.n }

// Recorder returns a Tracer that appends every occurrence entering the
// detector to the log; install it with Detector.SetTracer to capture an
// application's event stream for later batch analysis. The raw trace
// point fires before subscriber routing, so the log is complete even for
// events nothing was subscribed to at recording time.
// The first append error is kept: later occurrences are not written,
// so the log stays a prefix of the stream, and Err reports the failure.
func (l *EventLog) Recorder() Tracer {
	return tracerFunc(func(kind TraceKind, occ *event.Occurrence, _ Context, _ string) {
		if kind == TraceRaw && occ != nil && !occ.IsComposite() && l.err == nil {
			l.err = l.Append(occ)
		}
	})
}

// Err returns the first error a Recorder hit appending to the log.
func (l *EventLog) Err() error { return l.err }

type tracerFunc func(kind TraceKind, occ *event.Occurrence, ctx Context, node string)

func (f tracerFunc) Trace(kind TraceKind, occ *event.Occurrence, ctx Context, node string) {
	f(kind, occ, ctx, node)
}

// replayChunk bounds how many decoded occurrences are buffered before
// being handed to SignalBatch: large enough to amortize the graph lock to
// noise, small enough to keep replay memory flat on huge logs.
const replayChunk = 256

// Replay feeds every occurrence in r through the detector, in recorded
// order, advancing the detector's virtual clock to each occurrence's
// timestamp so temporal operators behave as they did online. Occurrences
// are decoded into chunks and injected with SignalBatch, so the graph
// lock is taken once per chunk instead of once per occurrence. It returns
// the number of occurrences replayed.
func Replay(r io.Reader, d *Detector) (int, error) {
	br := bufio.NewReader(r)
	n := 0
	batch := make([]event.Occurrence, 0, replayChunk)
	flush := func() error {
		done, err := d.SignalBatch(batch)
		n += done
		batch = batch[:0]
		return err
	}
	var buf []byte
	for {
		var occ *event.Occurrence
		var err error
		if buf, err = codec.ReadLogRecord(br, buf); err == nil {
			occ, err = codec.DecodeOccurrence(buf)
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				return n, flush()
			}
			if ferr := flush(); ferr != nil {
				return n, ferr
			}
			return n, fmt.Errorf("detector: replay event log: %w", err)
		}
		if occ.Kind == event.KindMethod {
			// Logged method events replay through the signature path, as
			// they were signalled originally (SignalBatch routes unnamed
			// method occurrences through signalMethodLocked).
			occ.Name = ""
		}
		batch = append(batch, *occ)
		if len(batch) == replayChunk {
			if err := flush(); err != nil {
				return n, err
			}
		}
	}
}

// ReplayFile replays a log from a file path.
func ReplayFile(path string, d *Detector) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("detector: open event log: %w", err)
	}
	defer f.Close()
	return Replay(f, d)
}
