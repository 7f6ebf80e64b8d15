package jrpm

import (
	"context"

	"jrpm/internal/vmsim"
)

// RunListener runs pr's annotated program on in with l attached, the way
// SpeculateLoops runs its streaming recorder.
func RunListener(ctx context.Context, in Input, pr *ProfileResult, l vmsim.Listener) error {
	vm, err := newVM(pr.Annotated, in, pr.Opts.Cfg)
	if err != nil {
		return err
	}
	vm.Listeners = append(vm.Listeners, l)
	return runVM(ctx, vm)
}
