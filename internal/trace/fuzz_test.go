package trace

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"jrpm/internal/vmsim"
)

// FuzzReader feeds arbitrary bytes through the full decode path, once
// through Reader.Next and once through Reader.Replay into a
// vmsim.BatchConsumer. The contract under fuzzing is the reader's safety
// property: corrupt input must surface as an error (or a clean EOF for a
// coincidentally valid stream) — never a panic, and never unbounded
// allocation, which the format's caps and the reader's
// zero-per-record-allocation design guarantee structurally — and both
// entry points must yield the same events and the same error class.
func FuzzReader(f *testing.F) {
	// Seed with a well-formed trace and targeted corruptions of it so the
	// fuzzer starts inside the interesting part of the input space.
	var buf bytes.Buffer
	w, err := NewWriter(&buf, [32]byte{0xaa})
	if err != nil {
		f.Fatal(err)
	}
	w.LoopStart(1, 0, 2, 64)
	w.HeapLoad(2, 0x1000, 3)
	w.HeapStore(3, 0x1004, 4)
	w.LocalLoad(4, vmsim.SlotID{Frame: 64, Slot: 1}, 5)
	w.LocalStore(5, vmsim.SlotID{Frame: 64, Slot: 0}, 6)
	w.LoopIter(6, 0)
	w.LoopEnd(7, 0)
	w.ReadStats(7, 0)
	if err := w.Finish(Summary{CleanCycles: 5, TracedCycles: 7}); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()

	f.Add(valid)
	f.Add(valid[:len(valid)/2])                        // truncated body
	f.Add(valid[:10])                                  // truncated header
	f.Add(append([]byte{}, bytes.Repeat(valid, 2)...)) // trailing data
	bad := append([]byte{}, valid...)
	bad[40] ^= 0xff // corrupt a record tag
	f.Add(bad)
	f.Add([]byte("JRTR"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		byNext, nextErr := decodeByNext(t, data)
		byReplay, replayErr := decodeByReplay(data)
		if len(byNext) > len(data) {
			// Every record consumes at least its kind byte, so a valid
			// stream can never yield more records than input bytes.
			t.Fatalf("decoded %d records from %d bytes", len(byNext), len(data))
		}
		if got, want := errClass(replayErr), errClass(nextErr); got != want {
			t.Fatalf("Replay error %v (%s), Next error %v (%s)", replayErr, got, nextErr, want)
		}
		if !reflect.DeepEqual(byReplay, byNext) {
			t.Fatalf("Replay delivered %d events, Next returned %d, or they differ", len(byReplay), len(byNext))
		}
	})
}

// decodeByNext decodes data through Reader.Next until EOF or the first
// error.
func decodeByNext(t *testing.T, data []byte) ([]Event, error) {
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	r.NumLoops = 4
	var evs []Event
	for {
		ev, err := r.Next()
		if errors.Is(err, io.EOF) {
			if _, ok := r.Summary(); !ok {
				t.Fatal("EOF without summary")
			}
			return evs, nil
		}
		if err != nil {
			return evs, err
		}
		evs = append(evs, ev)
	}
}

// decodeByReplay decodes data through Reader.Replay into a
// vmsim.BatchConsumer.
func decodeByReplay(data []byte) ([]Event, error) {
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	r.NumLoops = 4
	var b batchLog
	_, err = r.Replay(&b)
	return b.events, err
}

// batchLog collects replayed events through ConsumeEvents; its Listener
// methods (from eventLog) record too, so a per-event fallback would also
// show up in the comparison.
type batchLog struct{ eventLog }

func (b *batchLog) ConsumeEvents(evs []vmsim.Event) {
	for _, ev := range evs {
		b.events = append(b.events, Event{
			Kind: Kind(ev.Kind) + KindHeapLoad, Time: ev.Now, Addr: ev.Addr, PC: int(ev.PC),
			Frame: ev.Frame, Slot: int(ev.Slot), Loop: int(ev.Loop), NumLocals: int(ev.NumLocals),
		})
	}
}

// errClass names the decode error class of err.
func errClass(err error) string {
	for _, c := range []struct {
		err  error
		name string
	}{
		{ErrCorrupt, "corrupt"},
		{io.ErrUnexpectedEOF, "truncated"},
		{ErrBadMagic, "bad magic"},
		{ErrBadVersion, "bad version"},
	} {
		if errors.Is(err, c.err) {
			return c.name
		}
	}
	if err != nil {
		return "other"
	}
	return "none"
}
