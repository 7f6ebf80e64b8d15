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
// vmsim.Consumer. The contract under fuzzing is the reader's safety
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
	w.Consume([]vmsim.Event{
		{Kind: vmsim.EvLoopStart, Now: 1, Loop: 0, NumLocals: 2, Frame: 64},
		{Kind: vmsim.EvHeapLoad, Now: 2, Addr: 0x1000, PC: 3},
		{Kind: vmsim.EvHeapStore, Now: 3, Addr: 0x1004, PC: 4},
		{Kind: vmsim.EvLocalLoad, Now: 4, Frame: 64, Slot: 1, PC: 5},
		{Kind: vmsim.EvLocalStore, Now: 5, Frame: 64, Slot: 0, PC: 6},
		{Kind: vmsim.EvLoopIter, Now: 6, Loop: 0},
		{Kind: vmsim.EvLoopEnd, Now: 7, Loop: 0},
		{Kind: vmsim.EvReadStats, Now: 7, Loop: 0},
	})
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
func decodeByNext(t *testing.T, data []byte) ([]vmsim.Event, error) {
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	r.NumLoops = 4
	var evs []vmsim.Event
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

// decodeByReplay decodes data through Reader.Replay into an eventLog.
func decodeByReplay(data []byte) ([]vmsim.Event, error) {
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	r.NumLoops = 4
	var l eventLog
	_, err = r.Replay(&l)
	return l.events, err
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
