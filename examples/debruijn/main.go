// De Bruijn / Kautz study: prints the refined lower bounds of Sections 5–6
// for DB(d,D) and K(d,D) across systolic periods and modes, measures real
// protocols against them, and demonstrates the reproduction finding about
// the paper's literal de Bruijn separator sets (shift evasion) together
// with the marker construction that restores the claimed parameters.
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
	ctx := context.Background()

	fmt.Println("=== DB(2,D) and K(2,D) lower-bound coefficients (×log n) ===")
	db := bounds.LemmaSeparator(bounds.DB, 2)
	kz := bounds.LemmaSeparator(bounds.Kautz, 2)
	fmt.Printf("%4s %12s %12s %14s\n", "s", "DB half-dx", "K half-dx", "DB full-dx")
	for _, s := range []int{3, 4, 6, 8} {
		fmt.Printf("%4d %12.4f %12.4f %14.4f\n", s,
			bounds.BestHalfDuplex(db, s), bounds.BestHalfDuplex(kz, s), bounds.BestFullDuplex(db, s))
	}
	dbInf, _ := bounds.SeparatorHalfDuplexInfinity(db)
	fmt.Printf("%4s %12.4f %12s %14s   (paper quotes 1.5876 for DB(2,D))\n\n", "inf", dbInf, "-", "-")

	fmt.Println("=== Upper vs lower: periodic protocols on DB(2,D) ===")
	for _, D := range []int{4, 5, 6} {
		net, err := systolic.New("debruijn", systolic.Degree(2), systolic.Diameter(D))
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
		fmt.Printf("  DB(2,%d): n=%3d  measured %3d rounds  >=  bound %2d rounds (s=%d)\n",
			D, net.G.N(), rep.Measured, rep.LowerBound.Rounds, p.Period)
	}

	fmt.Println("\n=== Greedy non-systolic gossip (s→∞ comparison) ===")
	for _, D := range []int{4, 5} {
		net, err := systolic.New("debruijn", systolic.Degree(2), systolic.Diameter(D))
		if err != nil {
			log.Fatal(err)
		}
		p, err := systolic.NewProtocol("greedy-half", net, 10000)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := systolic.Analyze(ctx, net, p, systolic.WithRoundBudget(10000))
		if err != nil {
			log.Fatal(err)
		}
		lb, err := systolic.Evaluate(net, systolic.Request{Mode: systolic.HalfDuplex, Period: systolic.NonSystolic})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  DB(2,%d): greedy %3d rounds >= %.4f·log n = %d rounds (%s)\n",
			D, rep.Measured, lb.Coefficient, lb.Rounds, lb.Source)
	}

	fmt.Println("\n=== Reproduction finding: literal Lemma 3.1 sets vs shifts ===")
	D := 9
	dbg := topology.NewDeBruijnDigraph(2, D)
	lit := separator.DeBruijnLiteral(dbg)
	dist := dbg.G.DistBetweenSets(lit.V1, lit.V2)
	fmt.Printf("  Literal spread-position sets on DB(2,%d): measured min distance %d (claimed ~D−O(√D) = %d-ish)\n",
		D, dist, D-3)
	if u, v, ok := separator.DemonstrateShiftEvasion(2, D); ok {
		fmt.Printf("  Witness pair at distance 1: u = %v -> v = %v\n", u, v)
	}
	mk := separator.DeBruijnMarker(dbg)
	mdist, err := mk.Verify(dbg.G)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  Marker sets (%s): measured min distance %d >= promised %d — the ⟨log d, 1/log d⟩ parameters hold\n",
		mk.Name, mdist, mk.PromisedMin)
}
