// Quickstart for the public systolic API: compute the paper's general
// lower-bound coefficients e(s) (Fig. 4), evaluate the best bound for a
// concrete de Bruijn network built from named parameters, then drive a real
// systolic protocol through a resumable simulation session — stepping it in
// chunks, checkpointing mid-flight, restoring into a second session — and
// confirm the measured gossiping time respects the bound.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/systolic"
)

func main() {
	ctx := context.Background()

	// 1. The general systolic lower bound (Corollary 4.4): any s-systolic
	// gossip protocol on any n-vertex network, directed or half-duplex,
	// needs at least e(s)·log2(n) − O(log log n) rounds.
	fmt.Println("General half-duplex coefficients e(s):")
	for _, s := range []int{3, 4, 5, 6, 7, 8} {
		e, lambda := systolic.GeneralBound(systolic.HalfDuplex, s)
		fmt.Printf("  s=%d: e=%.4f (λ₀=%.4f)\n", s, e, lambda)
	}
	eInf, _ := systolic.GeneralBound(systolic.HalfDuplex, systolic.NonSystolic)
	fmt.Printf("  s=∞: e=%.4f (the 1.4404·log n bound of Even–Monien et al.)\n\n", eInf)

	// 2. A concrete network from the topology registry: the undirected
	// de Bruijn graph DB(2,6), instantiated with named parameters.
	net, err := systolic.New("debruijn", systolic.Degree(2), systolic.Diameter(6))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Network %s: n=%d vertices\n", net.Name, net.G.N())

	// 3. The refined bound of Theorem 5.1 via the ⟨α,ℓ⟩-separator.
	b, err := systolic.Evaluate(net, systolic.Request{Mode: systolic.HalfDuplex, Period: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("4-systolic half-duplex lower bound: %v\n\n", b)

	// 4. Run a real periodic protocol from the catalog through a session:
	// step it a few rounds at a time and watch the knowledge spread.
	p, err := systolic.NewProtocol("periodic-half", net, 0)
	if err != nil {
		log.Fatal(err)
	}
	sess, err := systolic.NewEngine(net, p)
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	for !sess.Done() {
		if _, err := sess.Step(ctx, 5); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  round %3d: knowledge %5d / %d\n", sess.Rounds(), sess.Knowledge(), sess.Target())
	}

	// 5. Sessions checkpoint and resume: snapshot this finished run, restore
	// it into a fresh session, and analyze from there — the report is built
	// on the restored state without re-simulating a single round.
	ck := sess.Snapshot()
	resumed, err := systolic.NewEngine(net, p)
	if err != nil {
		log.Fatal(err)
	}
	defer resumed.Close()
	if err := resumed.Restore(ck); err != nil {
		log.Fatal(err)
	}
	rep, err := resumed.Analyze(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println(rep)
}
