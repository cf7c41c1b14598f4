// Muller pipeline: the scalable experiment of the paper's Figure 6.
//
// The program generates an n-stage Muller pipeline control STG, synthesises
// it with the unfolding-based flow and (for sizes where it is feasible) with
// the explicit state-graph baseline — both through the same public punt API —
// and reports how the two compare.  Run it with increasing -stages to watch
// the state graph explode while the unfolding segment, and therefore the
// synthesis time, grows gently.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"time"

	"punt"
)

func main() {
	stages := flag.Int("stages", 10, "number of pipeline stages")
	withBaseline := flag.Bool("baseline", true, "also run the explicit state-graph baseline (bounded)")
	stateLimit := flag.Int("state-limit", 200000, "state budget for the explicit baseline")
	flag.Parse()

	ctx := context.Background()
	spec := punt.MullerPipeline(*stages)
	fmt.Printf("Muller pipeline with %d stages (%d signals)\n", *stages, spec.NumSignals())

	start := time.Now()
	res, err := punt.New().Synthesize(ctx, spec)
	if err != nil {
		log.Fatalf("unfolding-based synthesis failed: %v", err)
	}
	fmt.Printf("PUNT (unfolding): %v, %d literals, segment of %d events\n",
		time.Since(start).Round(time.Millisecond), res.Literals(), res.Stats.Events)

	// Print the gate of a middle stage: the classic C-element equation
	// c_i = c_{i-1}·c_i + c_i·¬c_{i+1} + c_{i-1}·¬c_{i+1}.
	mid := fmt.Sprintf("c%d", (*stages+1)/2)
	if gate, ok := res.Gate(mid); ok {
		fmt.Printf("gate for %s: %d literals\n", mid, gate.Literals())
	}

	if *withBaseline {
		start = time.Now()
		resB, err := punt.New(
			punt.WithEngine(punt.Explicit),
			punt.WithMaxStates(*stateLimit),
		).Synthesize(ctx, punt.MullerPipeline(*stages))
		switch {
		case errors.Is(err, punt.ErrLimit):
			fmt.Printf("SIS-like (explicit SG): gave up after %v: %v\n",
				time.Since(start).Round(time.Millisecond), err)
		case err != nil:
			log.Fatalf("explicit baseline failed: %v", err)
		default:
			fmt.Printf("SIS-like (explicit SG): %v, %d literals, %d states\n",
				time.Since(start).Round(time.Millisecond), resB.Literals(), resB.Stats.States)
		}
	}
}
