package systolic_test

import (
	"context"
	"fmt"

	"repro/systolic"
)

// Evaluate the paper's best lower bound for a network: for WBF(2,4) at
// period 4, Theorem 5.1 beats the general bound.
func ExampleEvaluate() {
	net, _ := systolic.New("wbf", systolic.Degree(2), systolic.Diameter(4))
	b, err := systolic.Evaluate(net, systolic.Request{Mode: systolic.HalfDuplex, Period: 4})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("coefficient %.4f from the %s bound\n", b.Coefficient, b.Source)
	// Output:
	// coefficient 2.0219 from the separator bound
}

// Analyze a concrete protocol end to end: the optimal hypercube
// dimension-exchange meets the log₂(n) bound exactly.
func ExampleAnalyze() {
	net, _ := systolic.New("hypercube", systolic.Dimension(5))
	p, _ := systolic.NewProtocol("hypercube", net, 0)
	rep, _ := systolic.Analyze(context.Background(), net, p, systolic.WithRoundBudget(100))
	fmt.Printf("measured %d, certified bound %d, theorem respected: %v\n",
		rep.Measured, rep.LowerBound.Rounds, rep.TheoremRespected)
	// Output:
	// measured 5, certified bound 5, theorem respected: true
}

// Fan a parameter grid across a worker pool; results come back in job
// order, so output is deterministic.
func ExampleSweep() {
	jobs := []systolic.SweepJob{
		{Label: "DB(2,4)", Kind: "debruijn",
			Params:   []systolic.Param{systolic.Degree(2), systolic.Diameter(4)},
			Protocol: systolic.UseProtocol("periodic-half", 0)},
		{Label: "Q4", Kind: "hypercube",
			Params:   []systolic.Param{systolic.Dimension(4)},
			Protocol: systolic.UseProtocol("hypercube", 0)},
	}
	results, _ := systolic.Sweep(context.Background(), jobs)
	for _, r := range results {
		fmt.Printf("%s: measured %d >= bound %d\n", r.Label, r.Report.Measured, r.Report.LowerBound.Rounds)
	}
	// Output:
	// DB(2,4): measured 18 >= bound 4
	// Q4: measured 4 >= bound 4
}
