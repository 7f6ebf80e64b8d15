package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"jrpm/internal/vmsim"
)

// Writer serializes a VM event stream. It is a vmsim.Consumer: attach it
// to the traced run alongside the live core.Tracer and both observe the
// identical event sequence — which is what makes replay equivalent to
// live profiling by construction rather than by testing alone.
//
// Consume cannot return errors, so the first I/O failure is latched and
// every later record becomes a no-op; Finish (or Err) surfaces it. A
// Writer is single-goroutine, like the VM that drives it.
type Writer struct {
	bw  *bufio.Writer
	err error

	prevTime  int64
	prevAddr  uint32
	prevPC    int32
	prevFrame uint64

	records  uint64
	finished bool

	scratch [2 + 4*binary.MaxVarintLen64]byte
}

var _ vmsim.Consumer = (*Writer)(nil)

// Consume serializes a batch of events in order, one record each. The
// bytes do not depend on how the stream is cut into batches (FORMAT.md).
func (w *Writer) Consume(evs []vmsim.Event) {
	for i := range evs {
		ev := &evs[i]
		// Record kinds 1-8 are the vmsim event kinds, in the same order.
		kind := KindHeapLoad + Kind(ev.Kind)
		switch ev.Kind {
		case vmsim.EvHeapLoad, vmsim.EvHeapStore:
			w.emit(kind, ev.Now, zigzag(int64(ev.Addr)-int64(w.prevAddr)), zigzag(int64(ev.PC)-int64(w.prevPC)))
			w.prevAddr, w.prevPC = ev.Addr, ev.PC
		case vmsim.EvLocalLoad, vmsim.EvLocalStore:
			w.emit(kind, ev.Now, zigzag(int64(ev.Frame-w.prevFrame)), uint64(ev.Slot), zigzag(int64(ev.PC)-int64(w.prevPC)))
			w.prevFrame, w.prevPC = ev.Frame, ev.PC
		case vmsim.EvLoopStart:
			w.emit(kind, ev.Now, uint64(ev.Loop), uint64(ev.NumLocals), zigzag(int64(ev.Frame-w.prevFrame)))
			w.prevFrame = ev.Frame
		case vmsim.EvLoopIter, vmsim.EvLoopEnd, vmsim.EvReadStats:
			w.emit(kind, ev.Now, uint64(ev.Loop))
		}
	}
}

// NewWriter opens a trace on w for a program with the given structural
// hash (see ProgramHash) and writes the header.
func NewWriter(w io.Writer, progHash [32]byte) (*Writer, error) {
	tw := &Writer{bw: bufio.NewWriterSize(w, 1<<16)}
	if _, err := tw.bw.Write(Magic[:]); err != nil {
		return nil, err
	}
	if err := tw.bw.WriteByte(Version); err != nil {
		return nil, err
	}
	if _, err := tw.bw.Write(progHash[:]); err != nil {
		return nil, err
	}
	return tw, nil
}

// Err returns the first error encountered while writing records.
func (w *Writer) Err() error { return w.err }

// Records returns the number of event records written so far.
func (w *Writer) Records() uint64 { return w.records }

// Finish writes the summary trailer and flushes. sum.Records is filled in
// by the writer. Finish must be called exactly once, after the traced run
// completes.
func (w *Writer) Finish(sum Summary) error {
	if w.err != nil {
		return w.err
	}
	if w.finished {
		return fmt.Errorf("trace: Finish called twice")
	}
	w.finished = true
	sum.Records = w.records
	buf := w.scratch[:0]
	buf = append(buf, byte(KindSummary))
	buf = binary.AppendUvarint(buf, sum.Records)
	buf = binary.AppendUvarint(buf, uint64(sum.CleanCycles))
	buf = binary.AppendUvarint(buf, uint64(sum.TracedCycles))
	buf = binary.AppendUvarint(buf, uint64(sum.HeapLoads))
	buf = binary.AppendUvarint(buf, uint64(sum.HeapStores))
	buf = binary.AppendUvarint(buf, uint64(sum.LocalAnnots))
	buf = binary.AppendUvarint(buf, uint64(sum.LoopAnnots))
	buf = binary.AppendUvarint(buf, uint64(sum.ReadStats))
	buf = binary.AppendUvarint(buf, uint64(sum.Annotations))
	if _, err := w.bw.Write(buf); err != nil {
		w.err = err
		return err
	}
	if err := w.bw.Flush(); err != nil {
		w.err = err
		return err
	}
	return nil
}

// emit writes one record: the kind tag, the time delta, then the payload
// values (alternating raw uvarints and zigzag deltas per record layout).
func (w *Writer) emit(kind Kind, now int64, fields ...uint64) {
	if w.err != nil || w.finished {
		return
	}
	buf := w.scratch[:0]
	buf = append(buf, byte(kind))
	buf = binary.AppendUvarint(buf, uint64(now-w.prevTime))
	w.prevTime = now
	for _, f := range fields {
		buf = binary.AppendUvarint(buf, f)
	}
	if _, err := w.bw.Write(buf); err != nil {
		w.err = err
		return
	}
	w.records++
}
