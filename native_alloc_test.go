package jrpm_test

import (
	"context"
	"testing"

	"jrpm"
	"jrpm/internal/workloads"
)

// TestNativeProfileAllocsFlat: a native-tier Profile allocates no more
// than the predecode one plus a constant for installing the tier. A
// per-entry allocation would add one allocation for each of the
// thousands of native loop entries the Huffman run makes.
func TestNativeProfileAllocsFlat(t *testing.T) {
	w, err := workloads.ByName("Huffman")
	if err != nil {
		t.Fatal(err)
	}
	in := w.NewInput(0.5)
	opts := jrpm.DefaultOptions()
	c, err := jrpm.Compile(w.Source, opts)
	if err != nil {
		t.Fatal(err)
	}
	native := opts
	for _, l := range c.Annotated.Loops {
		native.NativeLoops = append(native.NativeLoops, l.ID)
	}
	profile := func(o jrpm.Options) *jrpm.ProfileResult {
		res, err := c.Profile(context.Background(), in, o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	var enters int64
	for _, st := range profile(native).Native {
		enters += st.Enters
	}
	// installSlack bounds what installing the native tier on the clean
	// and traced VMs allocates; it does not depend on how often loops
	// are entered.
	const installSlack = 200
	if enters < 4*installSlack {
		t.Fatalf("native entries = %d, too few to tell a per-entry allocation from the install cost", enters)
	}
	base := testing.AllocsPerRun(5, func() { profile(opts) })
	nat := testing.AllocsPerRun(5, func() { profile(native) })
	t.Logf("allocs per Profile: predecode %.0f, native %.0f (%d native entries)", base, nat, enters)
	if nat > base+installSlack {
		t.Errorf("native Profile allocates %.0f, predecode %.0f: more than %d over it with %d native entries",
			nat, base, installSlack, enters)
	}
}
