// Method-call-return decompositions (§4.1): besides loops, speculative
// threads can fork at a call, running the continuation speculatively while
// the head thread executes the callee. The paper sets this form aside
// because its opportunities were "either not covered by similar loop
// decompositions or [without] significant coverage". This example runs the
// internal/mcr analyzer on two programs to show both halves of that
// sentence: a standalone call whose continuation overlaps heavily, and the
// same call inside a loop, where the loop decomposition already captures
// the parallelism.
//
//	go run ./examples/callreturn
package main

import (
	_ "embed"
	"fmt"
	"log"

	"jrpm/internal/annotate"
	"jrpm/internal/lang"
	"jrpm/internal/mcr"
	"jrpm/internal/vmsim"
)

//go:embed standalone.jr
var standalone string

//go:embed insideloop.jr
var insideLoop string

func analyze(label, src string) {
	prog, err := lang.Compile(src)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := annotate.Apply(prog, annotate.Optimized()); err != nil {
		log.Fatal(err)
	}
	vm := vmsim.New(prog)
	an := mcr.New(prog)
	vm.Consumers = append(vm.Consumers, an)
	if err := vm.BindGlobalInts("a", []int64{7, 11, 13, 17, 19, 23, 29, 31}); err != nil {
		log.Fatal(err)
	}
	if err := vm.BindGlobalInts("out", []int64{0}); err != nil {
		log.Fatal(err)
	}
	if err := vm.Run("main"); err != nil {
		log.Fatal(err)
	}
	an.Finish(vm.Cycles)
	sum := an.Summarize(vm.Cycles)

	fmt.Printf("=== %s ===\n", label)
	fmt.Printf("call sites: %d, dynamic calls: %d\n", sum.Sites, sum.Calls)
	fmt.Printf("exploitable call-return overlap: %.1f%% of execution\n", 100*sum.OverlapFrac)
	fmt.Printf("of which inside loop decompositions: %.0f%%\n\n", 100*sum.InLoopFrac)
}

func main() {
	analyze("standalone call (continuation independent of callee)", standalone)
	analyze("same call inside a loop (subsumed by the loop STL)", insideLoop)
	fmt.Println("The paper keeps loop decompositions only: across the benchmark suite")
	fmt.Println("(go run ./cmd/benchtab -ablate mcr) every overlap sits inside a loop.")
}
