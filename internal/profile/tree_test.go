package profile_test

import (
	"testing"

	"jrpm/internal/core"
	"jrpm/internal/hydra"
	"jrpm/internal/profile"
	"jrpm/internal/tir"
	"jrpm/internal/vmsim"
)

// driveTracer builds a tracer over a program with n candidate loops and
// replays a synthetic event schedule.
func driveTracer(n int, drive func(tr *core.Tracer)) (*tir.Program, *core.Tracer) {
	prog := &tir.Program{}
	for i := 0; i < n; i++ {
		prog.Loops = append(prog.Loops, tir.LoopInfo{ID: i, Candidate: true})
	}
	tr := core.NewTracer(prog, hydra.DefaultConfig(), core.Options{})
	drive(tr)
	return prog, tr
}

// One-event batches for driving a Tracer through Consume.
func loopStart(now int64, loop, numLocals int, frame uint64) []vmsim.Event {
	return []vmsim.Event{{Kind: vmsim.EvLoopStart, Now: now, Loop: int32(loop), NumLocals: int32(numLocals), Frame: frame}}
}

func loopIter(now int64, loop int) []vmsim.Event {
	return []vmsim.Event{{Kind: vmsim.EvLoopIter, Now: now, Loop: int32(loop)}}
}

func loopEnd(now int64, loop int) []vmsim.Event {
	return []vmsim.Event{{Kind: vmsim.EvLoopEnd, Now: now, Loop: int32(loop)}}
}

// TestBuildTreeNesting: dynamic nesting produces the right tree, depths
// and heights.
func TestBuildTreeNesting(t *testing.T) {
	prog, tr := driveTracer(3, func(tr *core.Tracer) {
		tr.Consume(loopStart(0, 0, 0, 1))
		tr.Consume(loopStart(10, 1, 0, 1))
		tr.Consume(loopStart(20, 2, 0, 1))
		tr.Consume(loopIter(30, 2))
		tr.Consume(loopEnd(40, 2))
		tr.Consume(loopEnd(50, 1))
		tr.Consume(loopIter(60, 0))
		tr.Consume(loopEnd(100, 0))
	})
	a := profile.BuildTree(prog, tr, 120, 120, hydra.DefaultConfig())
	if len(a.Roots) != 1 || a.Roots[0].Loop != 0 {
		t.Fatalf("roots = %v", a.Roots)
	}
	n0 := a.Nodes[0]
	n1 := a.Nodes[1]
	n2 := a.Nodes[2]
	if n1.Parent != n0 || n2.Parent != n1 {
		t.Fatal("parent chain broken")
	}
	if n0.Depth != 1 || n1.Depth != 2 || n2.Depth != 3 {
		t.Fatalf("depths = %d/%d/%d", n0.Depth, n1.Depth, n2.Depth)
	}
	if n0.Height != 3 || n1.Height != 2 || n2.Height != 1 {
		t.Fatalf("heights = %d/%d/%d", n0.Height, n1.Height, n2.Height)
	}
	if a.MaxDepth() != 3 {
		t.Fatalf("MaxDepth = %d", a.MaxDepth())
	}
	if a.Scale != 1 {
		t.Fatalf("scale = %f", a.Scale)
	}
}

// TestBuildTreePrimaryParent: a loop entered from two parents attaches to
// the more frequent one.
func TestBuildTreePrimaryParent(t *testing.T) {
	prog, tr := driveTracer(3, func(tr *core.Tracer) {
		// Loop 2 entered once under loop 0, twice under loop 1.
		tr.Consume(loopStart(0, 0, 0, 1))
		tr.Consume(loopStart(10, 2, 0, 1))
		tr.Consume(loopEnd(20, 2))
		tr.Consume(loopEnd(30, 0))
		tr.Consume(loopStart(40, 1, 0, 1))
		tr.Consume(loopStart(50, 2, 0, 1))
		tr.Consume(loopEnd(60, 2))
		tr.Consume(loopStart(70, 2, 0, 1))
		tr.Consume(loopEnd(80, 2))
		tr.Consume(loopEnd(90, 1))
	})
	a := profile.BuildTree(prog, tr, 100, 100, hydra.DefaultConfig())
	if a.Nodes[2].Parent == nil || a.Nodes[2].Parent.Loop != 1 {
		t.Fatalf("loop 2's primary parent = %v, want loop 1", a.Nodes[2].Parent)
	}
	if len(a.Roots) != 2 {
		t.Fatalf("roots = %d, want 2 (loops 0 and 1)", len(a.Roots))
	}
}

// TestBuildTreeScaleDeflation: traced cycles are deflated to clean units
// in predictions.
func TestBuildTreeScaleDeflation(t *testing.T) {
	prog, tr := driveTracer(1, func(tr *core.Tracer) {
		tr.Consume(loopStart(0, 0, 0, 1))
		for i := int64(1); i <= 100; i++ {
			tr.Consume(loopIter(i*100, 0))
		}
		tr.Consume(loopEnd(10100, 0))
	})
	// Traced run took 12000 cycles but the clean run took 6000: scale 0.5.
	a := profile.BuildTree(prog, tr, 12000, 6000, hydra.DefaultConfig())
	if a.Scale != 0.5 {
		t.Fatalf("scale = %f, want 0.5", a.Scale)
	}
	a.Select(profile.DefaultSelectOptions())
	// The loop's 10100 traced cycles deflate to 5050; with the remaining
	// 950 serial, predicted <= 6000 always.
	if a.PredictedCycles > 6000 {
		t.Fatalf("predicted %f exceeds clean total 6000", a.PredictedCycles)
	}
	if a.PredictedSpeedup() < 1 {
		t.Fatalf("predicted speedup %f < 1", a.PredictedSpeedup())
	}
}

// TestCoverageUsesTracedTotal: Node.Coverage is a fraction of the traced
// run.
func TestCoverageUsesTracedTotal(t *testing.T) {
	prog, tr := driveTracer(1, func(tr *core.Tracer) {
		tr.Consume(loopStart(0, 0, 0, 1))
		tr.Consume(loopIter(500, 0))
		tr.Consume(loopEnd(1000, 0))
	})
	a := profile.BuildTree(prog, tr, 2000, 2000, hydra.DefaultConfig())
	if cov := a.Nodes[0].Coverage(a.TotalCycles); cov != 0.5 {
		t.Fatalf("coverage = %f, want 0.5", cov)
	}
}

// TestLoopNameRendering: names include the static loop label.
func TestLoopNameRendering(t *testing.T) {
	prog, tr := driveTracer(1, func(tr *core.Tracer) {
		tr.Consume(loopStart(0, 0, 0, 1))
		tr.Consume(loopEnd(10, 0))
	})
	prog.Loops[0].Name = "main:42"
	a := profile.BuildTree(prog, tr, 10, 10, hydra.DefaultConfig())
	if got := a.LoopName(0); got != "L0(main:42)" {
		t.Fatalf("LoopName = %q", got)
	}
	if got := a.LoopName(99); got != "L99" {
		t.Fatalf("LoopName(99) = %q", got)
	}
}
