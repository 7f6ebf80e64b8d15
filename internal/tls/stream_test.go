package tls

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"jrpm/internal/hydra"
	"jrpm/internal/tir"
	"jrpm/internal/vmsim"
)

// fuzzHeapAddrs is a handful of byte addresses over four lines, two of
// them sharing a line and one unaligned, so RAW collisions are common.
var fuzzHeapAddrs = [...]uint64{0, 4, 8, 36, 64, 101}

// fuzzCase decodes data into a machine and a few small entries: 1-8 CPUs,
// tiny or default buffer limits, up to four entries of three loops (so
// violation learning carries across entries of the same loop), and up to
// seven accesses per iteration of all four kinds with sorted Rel.
func fuzzCase(data []byte) ([]*Entry, hydra.Config) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	cfg := hydra.DefaultConfig()
	cfg.CPUs = 1 + int(next()%8)
	if b := next(); b&1 != 0 {
		cfg.Buffers.LoadLines = 1 + int(b>>1)%3
	}
	if b := next(); b&1 != 0 {
		cfg.Buffers.StoreLines = 1 + int(b>>1)%3
	}
	var entries []*Entry
	for n := 1 + int(next()%4); n > 0 && len(data) > 0; n-- {
		e := &Entry{Loop: int(next() % 3)}
		for k := int(next() % 8); k > 0; k-- {
			var it Iter
			var rel int64
			for a := int(next() % 8); a > 0; a-- {
				b := next()
				rel += int64(next() % 32)
				acc := Access{Rel: rel, Kind: AccessKind(b % 4), PC: int(b>>2) % 4}
				if acc.Kind == LocalLoad || acc.Kind == LocalStore {
					acc.Addr = 1<<40 | uint64(b>>4)%3
				} else {
					acc.Addr = fuzzHeapAddrs[int(b>>4)%len(fuzzHeapAddrs)]
				}
				it.Acc = append(it.Acc, acc)
			}
			it.Len = rel + 1 + int64(next()%64)
			e.Iters = append(e.Iters, it)
			e.SeqCycles += it.Len
		}
		entries = append(entries, e)
	}
	return entries, cfg
}

// FuzzSimulate holds the streaming core to the reference model, once
// through Simulate and once on a simulator whose tables start a few
// generations short of the stamp wrapping around.
func FuzzSimulate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 2, 0, 7, 7, 0, 1, 12, 90, 1, 20, 5, 3, 4, 0, 1, 30})
	f.Add([]byte{0, 1, 1, 3, 1, 5, 6, 4, 2, 1, 9, 17, 3, 33, 4, 49, 8, 6, 7, 1, 4, 4, 5, 9, 6, 2, 3})
	f.Add([]byte{7, 3, 5, 3, 0, 7, 7, 48, 1, 49, 2, 50, 3, 51, 4, 0, 5, 1, 6, 2, 7, 9, 1, 7, 5, 48, 0, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, cfg := fuzzCase(data)
		want := refSimulate(entries, cfg)
		if got := Simulate(entries, cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("Simulate differs from the reference:\n got %+v\nwant %+v", dump(got), dump(want))
		}
		s := newSim(cfg)
		for _, g := range []*uint32{&s.stores.gen, &s.locals.gen, &s.written.gen, &s.ownLocals.gen, &s.ldLines.gen, &s.stLines.gen} {
			*g = math.MaxUint32 - 2
		}
		for _, e := range entries {
			s.begin(e.Loop)
			for _, it := range e.Iters {
				s.thread(it.Len, it.Acc)
			}
			s.end(e.SeqCycles)
		}
		if got := s.results(); !reflect.DeepEqual(got, want) {
			t.Fatalf("near-wrap simulator differs from the reference:\n got %+v\nwant %+v", dump(got), dump(want))
		}
	})
}

func dump(m map[int]*Result) map[int]Result {
	out := map[int]Result{}
	for k, r := range m {
		out[k] = *r
	}
	return out
}

// TestSimulateMatchesReferenceRandom is FuzzSimulate's property over a
// fixed set of random inputs, so every plain test run checks it.
func TestSimulateMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		data := make([]byte, rng.Intn(200))
		rng.Read(data)
		entries, cfg := fuzzCase(data)
		if got, want := Simulate(entries, cfg), refSimulate(entries, cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("input %x: got %v, want %v", data, dump(got), dump(want))
		}
	}
}

// TestTableMatchesMap drives a table and a fresh Go map per generation
// through the same random puts, gets and resets, across growth.
func TestTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var tb table[int]
	for gen := 0; gen < 50; gen++ {
		tb.reset()
		ref := map[uint64]int{}
		keys := 1 + rng.Intn(300)
		for op := 0; op < 1000; op++ {
			key := uint64(rng.Intn(keys)) * 4
			if rng.Intn(2) == 0 {
				v, added := tb.put(key)
				_, had := ref[key]
				if added == had {
					t.Fatalf("gen %d: put(%d) added=%v, map had it: %v", gen, key, added, had)
				}
				*v = op
				ref[key] = op
			} else {
				v, ok := tb.get(key)
				want, had := ref[key]
				if ok != had || (ok && v != want) {
					t.Fatalf("gen %d: get(%d) = %v, want %d/%v", gen, key, ok, want, had)
				}
			}
			if tb.n != len(ref) {
				t.Fatalf("gen %d: n = %d, map has %d", gen, tb.n, len(ref))
			}
		}
	}
}

// TestTableGenerationWrap: when the stamp wraps around, cells written
// under any earlier generation must not come back to life.
func TestTableGenerationWrap(t *testing.T) {
	var tb table[struct{}]
	tb.reset()
	tb.add(40) // written under generation 1
	tb.gen = math.MaxUint32 - 1
	tb.reset()
	tb.add(80)
	tb.reset() // wraps to generation 1 again
	if tb.gen != 1 {
		t.Fatalf("gen = %d after wrap, want 1", tb.gen)
	}
	if tb.has(40) || tb.has(80) || tb.n != 0 {
		t.Fatal("a key from before the wrap reads as present")
	}
	tb.add(40)
	if !tb.has(40) || tb.has(80) || tb.n != 1 {
		t.Fatal("table unusable after the wrap")
	}
}

func streamProg() *tir.Program {
	return &tir.Program{Loops: []tir.LoopInfo{
		{ID: 0, Candidate: true, AnnLocals: []int{3}},
		{ID: 1, Candidate: true},
	}}
}

// TestStreamUnclosedEntryLeavesNoResult: a selected loop whose entry is
// still open when the run ends contributes nothing, in the stream as in
// the reference over the kept entries.
func TestStreamUnclosedEntryLeavesNoResult(t *testing.T) {
	evs := []vmsim.Event{
		{Kind: vmsim.EvLoopStart, Now: 0, Loop: 1, Frame: 9},
		{Kind: vmsim.EvHeapStore, Now: 4, Addr: 0x100, PC: 1},
		{Kind: vmsim.EvLoopIter, Now: 10, Loop: 1},
		{Kind: vmsim.EvHeapLoad, Now: 11, Addr: 0x100, PC: 2},
		{Kind: vmsim.EvLoopEnd, Now: 20, Loop: 1},
		{Kind: vmsim.EvLoopStart, Now: 30, Loop: 0, Frame: 9},
		{Kind: vmsim.EvHeapLoad, Now: 31, Addr: 0x100, PC: 3},
		{Kind: vmsim.EvLocalStore, Now: 35, Frame: 9, Slot: 3, PC: 4},
		{Kind: vmsim.EvLoopIter, Now: 40, Loop: 0},
		{Kind: vmsim.EvLocalLoad, Now: 41, Frame: 9, Slot: 3, PC: 5},
		{Kind: vmsim.EvLoopIter, Now: 50, Loop: 0},
	}
	cfg := hydra.DefaultConfig()
	keep := NewRecorder(streamProg(), []int{0, 1})
	stream := NewStreamRecorder(streamProg(), []int{0, 1}, cfg)
	keep.Consume(evs)
	stream.Consume(evs)
	if len(keep.Entries) != 1 || keep.Entries[0].Loop != 1 {
		t.Fatalf("kept entries = %+v, want only loop 1's", keep.Entries)
	}
	got, want := stream.Results(), refSimulate(keep.Entries, cfg)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stream %v, reference %v", dump(got), dump(want))
	}
	if _, ok := got[0]; ok || len(got) != 1 {
		t.Fatalf("results = %v: the open entry of loop 0 produced a Result", dump(got))
	}
}

// TestStreamAllocsPerThread: once warm, streamed threads allocate
// nothing, even when they violate, wait on a synchronized local and
// overflow their store buffer.
func TestStreamAllocsPerThread(t *testing.T) {
	cfg := hydra.DefaultConfig()
	cfg.Buffers.StoreLines = 2
	rec := NewStreamRecorder(streamProg(), []int{0}, cfg)
	// Two iterations of loop 0. The first stores to four lines against a
	// two-line buffer, then late to a word and a local; the second reads
	// that word and that local early.
	iter := []vmsim.Event{
		{Kind: vmsim.EvHeapStore, Now: 10, Addr: 0x2000, PC: 1},
		{Kind: vmsim.EvHeapStore, Now: 11, Addr: 0x2020, PC: 1},
		{Kind: vmsim.EvHeapStore, Now: 12, Addr: 0x2040, PC: 1},
		{Kind: vmsim.EvHeapStore, Now: 13, Addr: 0x2060, PC: 1},
		{Kind: vmsim.EvHeapStore, Now: 80, Addr: 0x1000, PC: 2},
		{Kind: vmsim.EvLocalStore, Now: 85, Frame: 9, Slot: 3, PC: 3},
		{Kind: vmsim.EvLoopIter, Now: 100, Loop: 0},
		{Kind: vmsim.EvHeapLoad, Now: 102, Addr: 0x1000, PC: 4},
		{Kind: vmsim.EvLocalLoad, Now: 103, Frame: 9, Slot: 3, PC: 5},
		{Kind: vmsim.EvLoopIter, Now: 200, Loop: 0},
	}
	batch := make([]vmsim.Event, len(iter))
	var base int64
	thread := func() {
		// Forget the learned synchronization, so the load violates again.
		clear(rec.sim.syncd)
		for i := range iter {
			batch[i] = iter[i]
			batch[i].Now += base
		}
		base += 200
		rec.Consume(batch)
	}
	rec.Consume([]vmsim.Event{{Kind: vmsim.EvLoopStart, Now: 0, Loop: 0, NumLocals: 1, Frame: 9}})
	for i := 0; i < 64; i++ {
		thread()
	}
	s := rec.sim
	v, c, o, k := s.violations, s.commStalls, s.overflows, s.k
	if allocs := testing.AllocsPerRun(500, thread); allocs != 0 {
		t.Fatalf("two warm streamed threads allocate %.1f times, want 0", allocs)
	}
	if s.k == k || s.violations == v || s.commStalls == c || s.overflows == o {
		t.Fatalf("measured threads missed a hazard: threads +%d, violations +%d, comm stalls +%d, overflows +%d",
			s.k-k, s.violations-v, s.commStalls-c, s.overflows-o)
	}
}
