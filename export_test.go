package jrpm

import (
	"context"

	"jrpm/internal/vmsim"
)

// RunConsumer runs pr's annotated program on in with cons attached, the
// way SpeculateLoops runs its streaming recorder.
func RunConsumer(ctx context.Context, in Input, pr *ProfileResult, cons vmsim.Consumer) error {
	vm, err := newVM(pr.Annotated, in, pr.Opts.Cfg)
	if err != nil {
		return err
	}
	vm.Consumers = append(vm.Consumers, cons)
	return runVM(ctx, vm)
}
