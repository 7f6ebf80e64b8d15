package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"jrpm/internal/vmsim"
)

// eventLog records the replayed stream for comparison against what was
// written.
type eventLog struct {
	events []vmsim.Event
}

func (l *eventLog) Consume(evs []vmsim.Event) { l.events = append(l.events, evs...) }

// played is a fixed synthetic event sequence that exercises every record
// kind, both delta signs, and frame wraparound.
var played = []vmsim.Event{
	{Kind: vmsim.EvLoopStart, Now: 10, Loop: 0, NumLocals: 3, Frame: 0xffff_ffff_ffff_fff0},
	{Kind: vmsim.EvHeapLoad, Now: 11, Addr: 0x1000, PC: 4},
	{Kind: vmsim.EvHeapStore, Now: 12, Addr: 0x0800, PC: 9},     // negative address delta
	{Kind: vmsim.EvHeapLoad, Now: 12, Addr: 0xffff_ffff, PC: 2}, // max address, negative pc delta
	{Kind: vmsim.EvLocalLoad, Now: 13, Frame: 0xffff_ffff_ffff_fff0, Slot: 2, PC: 5},
	{Kind: vmsim.EvLocalStore, Now: 14, Frame: 16, Slot: 0, PC: 6}, // frame wraps forward past 0
	{Kind: vmsim.EvLoopIter, Now: 20, Loop: 0},
	{Kind: vmsim.EvLoopStart, Now: 21, Loop: 1, NumLocals: 0, Frame: 16},
	{Kind: vmsim.EvLoopEnd, Now: 30, Loop: 1},
	{Kind: vmsim.EvReadStats, Now: 30, Loop: 1},
	{Kind: vmsim.EvLoopIter, Now: 31, Loop: 0},
	{Kind: vmsim.EvLoopEnd, Now: 40, Loop: 0},
	{Kind: vmsim.EvReadStats, Now: 40, Loop: 0},
}

func record(t *testing.T, hash [32]byte) ([]byte, Summary) {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, hash)
	if err != nil {
		t.Fatal(err)
	}
	w.Consume(played)
	sum := Summary{
		CleanCycles: 35, TracedCycles: 40,
		HeapLoads: 2, HeapStores: 1, LocalAnnots: 2, LoopAnnots: 6,
		ReadStats: 2, Annotations: 13,
	}
	if err := w.Finish(sum); err != nil {
		t.Fatal(err)
	}
	sum.Records = w.Records()
	return buf.Bytes(), sum
}

func TestRoundTrip(t *testing.T) {
	hash := [32]byte{1, 2, 3}
	data, wantSum := record(t, hash)

	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if r.Header().Version != Version || r.Header().ProgramHash != hash {
		t.Fatalf("header = %+v", r.Header())
	}
	var got, want eventLog
	want.Consume(played)
	sum, err := r.Replay(&got)
	if err != nil {
		t.Fatal(err)
	}
	if sum != wantSum {
		t.Errorf("summary = %+v, want %+v", sum, wantSum)
	}
	if len(got.events) != len(want.events) {
		t.Fatalf("replayed %d events, wrote %d", len(got.events), len(want.events))
	}
	for i := range want.events {
		if got.events[i] != want.events[i] {
			t.Errorf("event %d: got %+v, want %+v", i, got.events[i], want.events[i])
		}
	}
}

func TestReaderSummaryGating(t *testing.T) {
	data, _ := record(t, [32]byte{})
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Summary(); ok {
		t.Error("summary available before reaching the trailer")
	}
	for {
		if _, err := r.Next(); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := r.Summary(); !ok {
		t.Error("summary unavailable after EOF")
	}
	// Next after EOF keeps returning EOF.
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("Next after EOF: %v", err)
	}
}

func TestBadHeader(t *testing.T) {
	data, _ := record(t, [32]byte{})

	bad := append([]byte{}, data...)
	bad[0] = 'X'
	if _, err := NewReader(bytes.NewReader(bad)); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}

	bad = append([]byte{}, data...)
	bad[4] = Version + 1
	if _, err := NewReader(bytes.NewReader(bad)); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: %v", err)
	}

	if _, err := NewReader(bytes.NewReader(data[:3])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated magic: %v", err)
	}
	if _, err := NewReader(bytes.NewReader(data[:20])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated hash: %v", err)
	}
}

// drain reads records until EOF or error.
func drain(data []byte, numLoops int) error {
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	r.NumLoops = numLoops
	for {
		_, err := r.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

func TestCorruptStreams(t *testing.T) {
	data, _ := record(t, [32]byte{})
	hdr := 5 + 32

	// Truncation anywhere inside the body is ErrUnexpectedEOF or corrupt —
	// never a nil error, never a panic.
	for n := hdr; n < len(data); n++ {
		err := drain(data[:n], 0)
		if err == nil {
			t.Fatalf("truncated at %d accepted", n)
		}
	}

	// Unknown record kind.
	bad := append([]byte{}, data...)
	bad[hdr] = 0x7f
	if err := drain(bad, 0); !errors.Is(err, ErrCorrupt) {
		t.Errorf("unknown kind: %v", err)
	}

	// Loop id beyond the replay target's table.
	if err := drain(data, 1); !errors.Is(err, ErrCorrupt) {
		t.Errorf("out-of-range loop id: %v", err)
	}

	// Trailing garbage after the summary trailer.
	if err := drain(append(append([]byte{}, data...), 0), 0); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing data: %v", err)
	}

	// Wrong record count in the trailer: flip the summary's count byte.
	// The trailer starts with the KindSummary tag; find it from the end by
	// re-encoding — simpler: corrupt every byte position and require no
	// panics (error or clean EOF only — single-byte corruption may still
	// decode, but must never crash).
	for i := hdr; i < len(data); i++ {
		bad := append([]byte{}, data...)
		bad[i] ^= 0xff
		drain(bad, 0) // must not panic
	}
}

func TestWriterErrorLatch(t *testing.T) {
	w, err := NewWriter(&failAfter{n: 64}, [32]byte{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		w.Consume([]vmsim.Event{{Kind: vmsim.EvHeapLoad, Now: int64(i), Addr: uint32(i), PC: int32(i)}})
	}
	if err := w.Finish(Summary{}); err == nil {
		t.Fatal("Finish succeeded despite write failure")
	}
	if w.Err() == nil {
		t.Fatal("error not latched")
	}
}

func TestFinishTwice(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, [32]byte{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(Summary{}); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(Summary{}); err == nil {
		t.Fatal("second Finish succeeded")
	}
}

// failAfter is a Writer that errors once n bytes have been accepted.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	f.n -= len(p)
	if f.n < 0 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, 1 << 40, -(1 << 40), 1<<63 - 1, -1 << 63} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Errorf("unzigzag(zigzag(%d)) = %d", v, got)
		}
	}
}
