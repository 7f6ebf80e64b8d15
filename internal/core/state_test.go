package core

import (
	"math/rand"
	"testing"

	"jrpm/internal/hydra"
	"jrpm/internal/tir"
	"jrpm/internal/vmsim"
)

// refStoreFIFO is the straightforward model of the store-timestamp FIFO
// the ring-and-index storeFIFO must match: a map from line to entry plus
// the allocation order of the lines, evicting the oldest line present.
type refStoreFIFO struct {
	cap     int
	entries map[uint32]*refLine
	order   []uint32
	head    int
}

type refLine struct {
	ts    [wordsPerLine]int64
	valid [wordsPerLine]bool
}

func newRefStoreFIFO(capLines int) *refStoreFIFO {
	return &refStoreFIFO{cap: capLines, entries: map[uint32]*refLine{}}
}

func (f *refStoreFIFO) record(addr uint32, ts int64) {
	line := addr / hydra.LineSize
	word := (addr % hydra.LineSize) / hydra.WordSize
	e := f.entries[line]
	if e == nil {
		if len(f.entries) >= f.cap {
			for {
				victim := f.order[f.head]
				f.head++
				if _, ok := f.entries[victim]; ok {
					delete(f.entries, victim)
					break
				}
			}
		}
		e = &refLine{}
		f.entries[line] = e
		f.order = append(f.order, line)
	}
	e.ts[word] = ts
	e.valid[word] = true
}

func (f *refStoreFIFO) lookup(addr uint32) (int64, bool) {
	line := addr / hydra.LineSize
	word := (addr % hydra.LineSize) / hydra.WordSize
	e := f.entries[line]
	if e == nil || !e.valid[word] {
		return 0, false
	}
	return e.ts[word], true
}

// fifoCapacities are the FIFO depths compared against the reference: the
// degenerate one-line FIFO, the short history of the sweep grid, and the
// paper's 192 lines.
var fifoCapacities = []int{1, 16, 192}

// checkStoreFIFO replays ops against both models at capacity capLines:
// each op is three bytes, a selector (odd records, even looks up) and a
// 16-bit address, so lines recur and the FIFO keeps evicting.
func checkStoreFIFO(t *testing.T, capLines int, ops []byte) {
	t.Helper()
	got, want := newStoreFIFO(capLines), newRefStoreFIFO(capLines)
	for i := 0; i+3 <= len(ops); i += 3 {
		addr := uint32(ops[i+1])<<8 | uint32(ops[i+2])
		now := int64(i)
		if ops[i]&1 == 1 {
			got.record(addr, now)
			want.record(addr, now)
			continue
		}
		gts, gok := got.lookup(addr)
		wts, wok := want.lookup(addr)
		if gok != wok || (wok && gts != wts) {
			t.Fatalf("cap %d, op %d: lookup(%#x) = (%d, %v), reference (%d, %v)", capLines, i/3, addr, gts, gok, wts, wok)
		}
	}
}

// seededOps returns n ops from a fixed seed, records and lookups
// alternating at random over a span of addresses.
func seededOps(seed int64, n int, span int) []byte {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]byte, 0, 3*n)
	for i := 0; i < n; i++ {
		addr := rng.Intn(span)
		ops = append(ops, byte(rng.Intn(2)), byte(addr>>8), byte(addr))
	}
	return ops
}

func TestStoreFIFOMatchesReference(t *testing.T) {
	for _, capLines := range fifoCapacities {
		for seed := int64(1); seed <= 4; seed++ {
			// Spans from a few lines (mostly hits) to the full 16-bit
			// space (mostly evictions).
			for _, span := range []int{256, 8 << 10, 64 << 10} {
				checkStoreFIFO(t, capLines, seededOps(seed, 20000, span))
			}
		}
	}
}

func FuzzStoreFIFO(f *testing.F) {
	for i := range fifoCapacities {
		f.Add(uint8(i), seededOps(int64(i), 500, 4<<10))
	}
	f.Fuzz(func(t *testing.T, capSel uint8, ops []byte) {
		checkStoreFIFO(t, fifoCapacities[int(capSel)%len(fifoCapacities)], ops)
	})
}

// TestBankReuseResetsLocals: a loop re-entered in the same frame after
// its LoopEnd runs on a reused bank, which must start with no local
// store timestamps from the previous entry.
func TestBankReuseResetsLocals(t *testing.T) {
	prog := &tir.Program{Loops: []tir.LoopInfo{{ID: 0, Candidate: true, AnnLocals: []int{2, 5}, NumLocals: 2}}}
	tr := NewTracer(prog, hydra.DefaultConfig(), Options{})
	slot := vmsim.SlotID{Frame: 7, Slot: 5}

	tr.LoopStart(0, 0, 2, 7)
	first := tr.stack[0]
	tr.LocalStore(10, slot, 1)
	tr.LoopIter(20, 0)
	tr.LocalLoad(30, slot, 2) // t-1 arc of 20 cycles
	tr.LoopEnd(40, 0)

	tr.LoopStart(50, 0, 2, 7)
	b := tr.stack[0]
	if b != first {
		t.Fatal("re-entry did not reuse the finished entry's bank")
	}
	for p, ts := range b.localTS {
		if ts != noStore {
			t.Errorf("local timestamp %d = %d after re-entry, want none", p, ts)
		}
	}
	tr.LoopIter(60, 0)
	tr.LocalLoad(70, slot, 3) // no store in this entry: no arc
	tr.LoopEnd(80, 0)

	s := tr.Results()[0]
	if s.Entries != 2 || s.ArcCount[BinPrev] != 1 || s.ArcLenSum[BinPrev] != 20 || s.ArcCount[BinEarlier] != 0 {
		t.Errorf("entries=%d arcs=%v lens=%v, want 2 entries and only the first entry's 20-cycle t-1 arc",
			s.Entries, s.ArcCount, s.ArcLenSum)
	}
}
