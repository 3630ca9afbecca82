// The paper's headline benchmark: exhaustive N-queens search as a tree of
// concurrent objects on a 512-node simulated AP1000, with ack-based
// termination detection (Section 6.2, Table 4, Figure 5).
//
//	go run ./examples/nqueens            # N=10 on 512 nodes
//	go run ./examples/nqueens -n 12      # bigger board
package main

import (
	"flag"
	"fmt"
	"log"

	abcl "repro"
	"repro/internal/apps/nqueens"
	"repro/internal/machine"
)

func main() {
	n := flag.Int("n", 10, "board size")
	nodes := flag.Int("nodes", 512, "processor count")
	flag.Parse()

	seq := nqueens.Sequential(*n, machine.DefaultConfig(1), 0)
	fmt.Printf("sequential baseline: %d solutions in %v (model: SS1+-class CPU)\n",
		seq.Solutions, seq.Elapsed)

	res, err := nqueens.Run(nqueens.Options{N: *n}, abcl.WithNodes(*nodes), abcl.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	if res.Solutions != seq.Solutions {
		log.Fatalf("parallel result %d disagrees with sequential %d",
			res.Solutions, seq.Solutions)
	}
	fmt.Printf("parallel: %d solutions in %v on %d nodes\n",
		res.Solutions, res.Elapsed, res.Nodes)
	fmt.Printf("  speedup      %.1fx (ideal %d)\n",
		float64(seq.Elapsed)/float64(res.Elapsed), *nodes)
	fmt.Printf("  utilization  %.0f%%\n", 100*res.Utilization)
	fmt.Printf("  objects      %d   messages %d\n", res.Objects, res.Messages)
	fmt.Printf("  dormant fraction of local messages: %.0f%% (paper: ~75%%)\n",
		100*res.Stats.DormantFraction())
}
