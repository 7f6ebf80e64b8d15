package tls_test

import (
	"testing"
	"testing/quick"

	"jrpm/internal/hydra"
	"jrpm/internal/tir"
	"jrpm/internal/tls"
	"jrpm/internal/vmsim"
)

func cfg() hydra.Config { return hydra.DefaultConfig() }

// entry builds one Entry of n identical iterations.
func entry(n int, iterLen int64, acc func(k int) []tls.Access) *tls.Entry {
	e := &tls.Entry{Loop: 0, SeqCycles: int64(n) * iterLen}
	for k := 0; k < n; k++ {
		it := tls.Iter{Len: iterLen}
		if acc != nil {
			it.Acc = acc(k)
		}
		e.Iters = append(e.Iters, it)
	}
	return e
}

// TestIndependentIterationsReachCPUBound: no cross-iteration accesses ->
// speedup approaches the CPU count.
func TestIndependentIterationsReachCPUBound(t *testing.T) {
	e := entry(64, 1000, nil)
	r := tls.Simulate([]*tls.Entry{e}, cfg())[0]
	if r.Violations != 0 || r.CommStalls != 0 || r.OverflowStalls != 0 {
		t.Fatalf("unexpected hazards: %+v", r)
	}
	if r.Speedup < 3.5 || r.Speedup > 4.0 {
		t.Fatalf("speedup = %.2f, want ~3.9", r.Speedup)
	}
}

// TestSerialChainSerializes: every iteration reads what the previous one
// wrote at its very end: no useful overlap survives.
func TestSerialChainSerializes(t *testing.T) {
	e := entry(64, 1000, func(k int) []tls.Access {
		return []tls.Access{
			{Rel: 5, Addr: 0x1000, Kind: tls.Load, PC: 1},
			{Rel: 995, Addr: 0x1000, Kind: tls.Store, PC: 2},
		}
	})
	r := tls.Simulate([]*tls.Entry{e}, cfg())[0]
	if r.Speedup > 1.15 {
		t.Fatalf("end-to-start chain got %.2fx, want ~1.0", r.Speedup)
	}
}

// TestViolationLearningConvertsToSync: the recompiler synchronizes a load
// PC after two violations; later threads stall instead of restarting.
func TestViolationLearningConvertsToSync(t *testing.T) {
	e := entry(64, 1000, func(k int) []tls.Access {
		return []tls.Access{
			{Rel: 5, Addr: 0x1000, Kind: tls.Load, PC: 42},
			{Rel: 500, Addr: 0x1000, Kind: tls.Store, PC: 43},
		}
	})
	r := tls.Simulate([]*tls.Entry{e}, cfg())[0]
	if r.Violations == 0 {
		t.Fatal("expected initial violations before learning")
	}
	if r.Violations > 6 {
		t.Fatalf("violations = %d: learning did not kick in", r.Violations)
	}
	if r.CommStalls == 0 {
		t.Fatal("synchronized loads should report communication stalls")
	}
	// Store at rel 500, load at rel 5: threads can overlap halfway.
	if r.Speedup < 1.5 || r.Speedup > 2.5 {
		t.Fatalf("speedup = %.2f, want ~2 (half-thread pipelining)", r.Speedup)
	}
}

// TestMidLoopDependencePipelines: a store->load distance of 3/4 thread
// size permits near-full overlap (the paper's 3/4 rule, executed).
func TestMidLoopDependencePipelines(t *testing.T) {
	e := entry(64, 1000, func(k int) []tls.Access {
		return []tls.Access{
			{Rel: 900, Addr: 0x1000, Kind: tls.Load, PC: 1},
			{Rel: 150, Addr: 0x1000, Kind: tls.Store, PC: 2},
		}
	})
	// Load late (rel 900), store early (rel 150): arc length ~250 + T.
	r := tls.Simulate([]*tls.Entry{e}, cfg())[0]
	if r.Speedup < 3.0 {
		t.Fatalf("long-arc dependence should pipeline, got %.2fx", r.Speedup)
	}
}

// TestOwnStoreForwards: a load of a word this thread already wrote never
// waits on other threads.
func TestOwnStoreForwards(t *testing.T) {
	e := entry(32, 1000, func(k int) []tls.Access {
		return []tls.Access{
			{Rel: 10, Addr: 0x2000, Kind: tls.Store, PC: 1},
			{Rel: 20, Addr: 0x2000, Kind: tls.Load, PC: 2},
			{Rel: 900, Addr: 0x2000, Kind: tls.Store, PC: 3},
		}
	})
	r := tls.Simulate([]*tls.Entry{e}, cfg())[0]
	if r.Violations != 0 || r.CommStalls != 0 {
		t.Fatalf("own-store forwarding failed: %+v", r)
	}
	if r.Speedup < 3.5 {
		t.Fatalf("speedup = %.2f", r.Speedup)
	}
}

// TestWAWAndWARAreFree: writes to the same location by different threads
// cost nothing (handled by the write buffers).
func TestWAWAndWARAreFree(t *testing.T) {
	e := entry(32, 1000, func(k int) []tls.Access {
		return []tls.Access{
			{Rel: 500, Addr: 0x3000, Kind: tls.Store, PC: 1},
		}
	})
	r := tls.Simulate([]*tls.Entry{e}, cfg())[0]
	if r.Violations != 0 || r.CommStalls != 0 || r.Speedup < 3.5 {
		t.Fatalf("WAW hazards exacted a cost: %+v", r)
	}
}

// TestLocalSyncNeverViolates: globalized locals wait, they do not restart.
func TestLocalSyncNeverViolates(t *testing.T) {
	e := entry(32, 1000, func(k int) []tls.Access {
		return []tls.Access{
			{Rel: 5, Addr: 1<<40 | 7, Kind: tls.LocalLoad, PC: 1},
			{Rel: 800, Addr: 1<<40 | 7, Kind: tls.LocalStore, PC: 2},
		}
	})
	r := tls.Simulate([]*tls.Entry{e}, cfg())[0]
	if r.Violations != 0 {
		t.Fatalf("local dependency violated instead of synchronizing: %+v", r)
	}
	if r.CommStalls == 0 {
		t.Fatal("expected synchronization stalls")
	}
	if r.Speedup > 1.5 {
		t.Fatalf("near-end-to-start local chain got %.2fx", r.Speedup)
	}
}

// TestBufferOverflowStalls: a thread whose write set exceeds the store
// buffer stalls until it becomes the head thread.
func TestBufferOverflowStalls(t *testing.T) {
	c := cfg()
	c.Buffers.StoreLines = 4
	e := entry(16, 1000, func(k int) []tls.Access {
		var acc []tls.Access
		for i := 0; i < 6; i++ { // 6 distinct lines > 4-line limit
			acc = append(acc, tls.Access{
				Rel: int64(10 + i), Addr: uint64(0x4000 + i*hydra.LineSize), Kind: tls.Store, PC: i,
			})
		}
		return acc
	})
	r := tls.Simulate([]*tls.Entry{e}, c)[0]
	if r.OverflowStalls == 0 {
		t.Fatal("expected overflow stalls")
	}
	if r.Speedup > 1.5 {
		t.Fatalf("stall-until-head should serialize, got %.2fx", r.Speedup)
	}

	// Same run with ample buffers parallelizes.
	r2 := tls.Simulate([]*tls.Entry{entry(16, 1000, func(k int) []tls.Access {
		var acc []tls.Access
		for i := 0; i < 6; i++ {
			acc = append(acc, tls.Access{
				Rel: int64(10 + i), Addr: uint64(0x4000 + i*hydra.LineSize), Kind: tls.Store, PC: i,
			})
		}
		return acc
	})}, cfg())[0]
	if r2.OverflowStalls != 0 || r2.Speedup < 3.0 {
		t.Fatalf("ample buffers still stalled: %+v", r2)
	}
}

// TestOverheadsCharged: startup + shutdown + per-thread eoi appear in the
// simulated time.
func TestOverheadsCharged(t *testing.T) {
	c := cfg()
	e := entry(1, 1000, nil)
	r := tls.Simulate([]*tls.Entry{e}, c)[0]
	want := c.Overheads.LoopStartup + 1000 + c.Overheads.EndOfIter + c.Overheads.LoopShutdown
	if r.TLSCycles != want {
		t.Fatalf("single-thread TLS time = %d, want %d", r.TLSCycles, want)
	}
}

// TestAggregationAcrossEntries: results accumulate per loop.
func TestAggregationAcrossEntries(t *testing.T) {
	e1 := entry(8, 500, nil)
	e2 := entry(8, 500, nil)
	r := tls.Simulate([]*tls.Entry{e1, e2}, cfg())[0]
	if r.Entries != 2 || r.Threads != 16 || r.SeqCycles != 8000 {
		t.Fatalf("aggregate = %+v", r)
	}
}

// --- Recorder --------------------------------------------------------------

func recorderProg() *tir.Program {
	p := &tir.Program{}
	p.Loops = []tir.LoopInfo{
		{ID: 0, Candidate: true, AnnLocals: []int{3}},
		{ID: 1, Candidate: true, AnnLocals: []int{5}},
	}
	return p
}

// TestRecorderCapturesIterations: boundaries, lengths and accesses.
func TestRecorderCapturesIterations(t *testing.T) {
	rec := tls.NewRecorder(recorderProg(), []int{0})
	rec.Consume([]vmsim.Event{
		{Kind: vmsim.EvLoopStart, Now: 100, Loop: 0, NumLocals: 1, Frame: 9},
		{Kind: vmsim.EvHeapLoad, Now: 110, Addr: 0x1000, PC: 1},
		{Kind: vmsim.EvLoopIter, Now: 150, Loop: 0},
		{Kind: vmsim.EvHeapStore, Now: 160, Addr: 0x2000, PC: 2},
		{Kind: vmsim.EvLoopEnd, Now: 230, Loop: 0},
	})

	if len(rec.Entries) != 1 {
		t.Fatalf("entries = %d", len(rec.Entries))
	}
	e := rec.Entries[0]
	if len(e.Iters) != 2 {
		t.Fatalf("iters = %d, want 2", len(e.Iters))
	}
	if e.Iters[0].Len != 50 || e.Iters[1].Len != 80 {
		t.Fatalf("iter lengths = %d/%d, want 50/80", e.Iters[0].Len, e.Iters[1].Len)
	}
	if e.SeqCycles != 130 {
		t.Fatalf("entry cycles = %d, want 130", e.SeqCycles)
	}
	if len(e.Iters[0].Acc) != 1 || e.Iters[0].Acc[0].Rel != 10 || e.Iters[0].Acc[0].Kind != tls.Load {
		t.Fatalf("iter 0 accesses = %+v", e.Iters[0].Acc)
	}
	if len(e.Iters[1].Acc) != 1 || e.Iters[1].Acc[0].Rel != 10 || e.Iters[1].Acc[0].Kind != tls.Store {
		t.Fatalf("iter 1 accesses = %+v", e.Iters[1].Acc)
	}
}

// TestRecorderFiltersLocals: only the selected loop's globalized slots in
// its own frame are recorded.
func TestRecorderFiltersLocals(t *testing.T) {
	rec := tls.NewRecorder(recorderProg(), []int{0})
	rec.Consume([]vmsim.Event{
		{Kind: vmsim.EvLoopStart, Now: 0, Loop: 0, NumLocals: 1, Frame: 9},
		{Kind: vmsim.EvLocalLoad, Now: 10, Frame: 9, Slot: 3, PC: 1},  // allowed
		{Kind: vmsim.EvLocalLoad, Now: 20, Frame: 9, Slot: 5, PC: 2},  // other loop's slot
		{Kind: vmsim.EvLocalLoad, Now: 30, Frame: 8, Slot: 3, PC: 3},  // wrong frame
		{Kind: vmsim.EvLocalStore, Now: 40, Frame: 9, Slot: 3, PC: 4}, // allowed
		{Kind: vmsim.EvLoopEnd, Now: 50, Loop: 0},
	})

	acc := rec.Entries[0].Iters[0].Acc
	if len(acc) != 2 {
		t.Fatalf("recorded %d local accesses, want 2: %+v", len(acc), acc)
	}
}

// TestRecorderIgnoresUnselectedLoops: events of other loops pass through
// as plain accesses of the active recording.
func TestRecorderIgnoresUnselectedLoops(t *testing.T) {
	rec := tls.NewRecorder(recorderProg(), []int{0})
	rec.Consume([]vmsim.Event{
		{Kind: vmsim.EvLoopStart, Now: 0, Loop: 0, NumLocals: 1, Frame: 9},
		{Kind: vmsim.EvLoopStart, Now: 10, Loop: 1, NumLocals: 1, Frame: 9}, // nested unselected loop
		{Kind: vmsim.EvHeapLoad, Now: 20, Addr: 0x1000, PC: 1},
		{Kind: vmsim.EvLoopIter, Now: 30, Loop: 1}, // must not split iteration of loop 0
		{Kind: vmsim.EvLoopEnd, Now: 40, Loop: 1},
		{Kind: vmsim.EvLoopEnd, Now: 50, Loop: 0},
	})
	e := rec.Entries[0]
	if len(e.Iters) != 1 {
		t.Fatalf("nested loop events split the recording: %d iters", len(e.Iters))
	}
	if len(e.Iters[0].Acc) != 1 {
		t.Fatalf("heap access inside nested loop lost")
	}
}

// TestRecorderOutsideLoopsIgnoresEvents: accesses outside a selected loop
// are not recorded.
func TestRecorderOutsideLoopsIgnoresEvents(t *testing.T) {
	rec := tls.NewRecorder(recorderProg(), []int{0})
	rec.Consume([]vmsim.Event{
		{Kind: vmsim.EvHeapLoad, Now: 5, Addr: 0x1000, PC: 1},
		{Kind: vmsim.EvLoopStart, Now: 10, Loop: 0, NumLocals: 1, Frame: 9},
		{Kind: vmsim.EvLoopEnd, Now: 20, Loop: 0},
		{Kind: vmsim.EvHeapStore, Now: 30, Addr: 0x1000, PC: 2},
	})
	if len(rec.Entries) != 1 || len(rec.Entries[0].Iters[0].Acc) != 0 {
		t.Fatalf("out-of-loop events recorded: %+v", rec.Entries)
	}
}

// TestSimulationInvariants is a property test over random traces: for any
// entry, the simulated time must lie between perfect parallel execution
// (seq/CPUs) and serial execution plus all fixed overheads and possible
// restart work.
func TestSimulationInvariants(t *testing.T) {
	type accSpec struct {
		Rel  uint8
		Addr uint8
		Kind uint8
	}
	f := func(nIterRaw uint8, lenRaw uint8, specs []accSpec) bool {
		c := cfg()
		nIter := int(nIterRaw%20) + 1
		iterLen := int64(lenRaw%200) + 20
		e := &tls.Entry{Loop: 0, SeqCycles: int64(nIter) * iterLen}
		for k := 0; k < nIter; k++ {
			it := tls.Iter{Len: iterLen}
			for _, sp := range specs {
				rel := int64(sp.Rel) % iterLen
				kind := tls.AccessKind(sp.Kind % 2) // loads and stores only
				it.Acc = append(it.Acc, tls.Access{
					Rel:  rel,
					Addr: uint64(sp.Addr%32) * 4,
					Kind: kind,
					PC:   int(sp.Addr),
				})
			}
			e.Iters = append(e.Iters, it)
		}
		r := tls.Simulate([]*tls.Entry{e}, c)[0]

		lower := e.SeqCycles / int64(c.CPUs)
		if r.TLSCycles < lower {
			t.Logf("TLS %d below parallel bound %d", r.TLSCycles, lower)
			return false
		}
		// Upper bound: full serialization plus overheads plus, per thread,
		// at most one full restart per distinct predecessor-store access
		// plus communication waits (each bounded by iterLen + comm).
		perThreadWorst := iterLen + c.Overheads.EndOfIter +
			int64(len(specs))*(iterLen+c.Overheads.StoreLoadComm+c.Overheads.Violation)
		upper := c.Overheads.LoopStartup + c.Overheads.LoopShutdown +
			int64(nIter)*perThreadWorst
		if r.TLSCycles > upper {
			t.Logf("TLS %d above serial bound %d", r.TLSCycles, upper)
			return false
		}
		if r.Speedup <= 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestMoreCPUsNeverSlower: the same trace on a bigger machine cannot get
// slower.
func TestMoreCPUsNeverSlower(t *testing.T) {
	e := func() *tls.Entry {
		return entry(40, 500, func(k int) []tls.Access {
			return []tls.Access{
				{Rel: 100, Addr: uint64(k%8) * 64, Kind: tls.Store, PC: 1},
				{Rel: 50, Addr: uint64((k+1)%8) * 64, Kind: tls.Load, PC: 2},
			}
		})
	}
	c2 := cfg()
	c2.CPUs = 2
	c8 := cfg()
	c8.CPUs = 8
	r2 := tls.Simulate([]*tls.Entry{e()}, c2)[0]
	r8 := tls.Simulate([]*tls.Entry{e()}, c8)[0]
	if r8.TLSCycles > r2.TLSCycles {
		t.Fatalf("8 CPUs (%d cycles) slower than 2 CPUs (%d cycles)", r8.TLSCycles, r2.TLSCycles)
	}
}
