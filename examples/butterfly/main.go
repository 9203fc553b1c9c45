// Butterfly study: for Wrapped Butterflies WBF(2,D) this example
// (a) verifies the Lemma 3.1 separator sets by BFS,
// (b) prints the paper's refined systolic and non-systolic lower bounds, and
// (c) measures real protocols against them across increasing D —
// reproducing the upper-vs-lower comparison that motivates Section 5
// (the paper quotes g(WBF(2,D)) ≤ 2.5·log n + O(√log n) against the new
// lower bound 2.0218·log n at s=4).
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/bounds"
	"repro/internal/separator"
	"repro/internal/topology"
	"repro/systolic"
)

func main() {
	fmt.Println("=== Separator verification (Lemma 3.1) ===")
	for _, D := range []int{4, 6, 8} {
		w := topology.NewWrappedButterfly(2, D)
		s := separator.WrappedButterfly(w)
		measured, err := s.Verify(w.G)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  WBF(2,%d): |V1|=%d |V2|=%d, min distance %d (3D/2 = %d)\n",
			D, len(s.V1), len(s.V2), measured, 3*D/2)
	}
	for _, D := range []int{3, 4, 5} {
		wd := topology.NewWrappedButterflyDigraph(2, D)
		s := separator.WrappedButterflyDirected(wd)
		measured, err := s.Verify(wd.G)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  WBF->(2,%d): min distance %d (promise 2D-1 = %d, exact)\n",
			D, measured, 2*D-1)
	}

	fmt.Println("\n=== Lower-bound coefficients for WBF(2,D) (Fig. 5 / Fig. 6 rows) ===")
	sep := bounds.LemmaSeparator(bounds.WBF, 2)
	for _, s := range []int{3, 4, 5, 6, 7, 8} {
		fmt.Printf("  s=%d: %.4f·log n\n", s, bounds.BestHalfDuplex(sep, s))
	}
	eInf, _ := bounds.SeparatorHalfDuplexInfinity(sep)
	fmt.Printf("  s=∞: %.4f·log n (vs 1.4404 general; paper quotes 1.9750)\n", eInf)

	fmt.Println("\n=== Upper vs lower on concrete instances ===")
	ctx := context.Background()
	for _, D := range []int{3, 4, 5} {
		net, err := systolic.New("wbf", systolic.Degree(2), systolic.Diameter(D))
		if err != nil {
			log.Fatal(err)
		}
		p, err := systolic.NewProtocol("periodic-half", net, 0)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := systolic.Analyze(ctx, net, p, systolic.WithRoundBudget(200000))
		if err != nil {
			log.Fatal(err)
		}
		lb, err := systolic.Evaluate(net, systolic.Request{Mode: systolic.HalfDuplex, Period: p.Period})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  WBF(2,%d): n=%4d  measured %4d rounds  >=  bound %3d rounds (%.4f·log n, %s)\n",
			D, net.G.N(), rep.Measured, lb.Rounds, lb.Coefficient, lb.Source)
	}
}
