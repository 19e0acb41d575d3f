// Command qmlbench regenerates every quantitative artifact of the paper's
// evaluation (and the claims embedded in its listings), one experiment per
// row below:
//
//	E1  §5 gate path: QAOA Max-Cut on the statevector engine
//	E2  §5 anneal path: Ising Max-Cut on the SA engine
//	E3  §5 claims: optimal strings 1010/0101, expected cut ≈ 3.0–3.2
//	E4  Listing 1: 10-qubit QFT, 10000 shots, uniform counts
//	E5  Listing 3: QFT cost hint twoq=45, depth≈100 vs realized circuit
//	E6  Listing 4: routing overhead under basis {sx,rz,cx} + linear map
//	E7  Listing 5: QEC overhead and logical error rate vs distance
//	E8  §4.3.1: distributed QFT teleportation/EPR accounting vs width
//	E9  §1/§3: context swaps leave intent artifacts byte-identical
//	E10 ablation: QAOA depth p and angle grid vs expected cut
//	E11 ablation: SA sweeps/schedule vs baselines (random/greedy/tabu)
//
// Usage: qmlbench [-exp E5] [-seed 42]   (default: run everything)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

var experiments = []struct {
	id   string
	desc string
	run  func(seed uint64) error
}{
	{"E1", "§5 gate path: QAOA Max-Cut", runE1},
	{"E2", "§5 anneal path: Ising Max-Cut", runE2},
	{"E3", "§5 claims: optimal strings + expected-cut band", runE3},
	{"E4", "Listing 1: 10-qubit QFT, 10000 shots", runE4},
	{"E5", "Listing 3: QFT cost hint vs realized circuit", runE5},
	{"E6", "Listing 4: routing overhead", runE6},
	{"E7", "Listing 5: QEC overhead vs distance", runE7},
	{"E8", "§4.3.1: distributed QFT communication volume", runE8},
	{"E9", "§1/§3: intent unchanged across contexts", runE9},
	{"E10", "ablation: QAOA depth sweep", runE10},
	{"E11", "ablation: annealer vs classical baselines", runE11},
	{"E12", "ablation: transpiler optimization levels", runE12},
	{"E13", "ablation: Grover success vs context noise", runE13},
}

func main() {
	exp := flag.String("exp", "", "run a single experiment (E1..E11)")
	seed := flag.Uint64("seed", 42, "master seed")
	flag.Parse()
	ran := 0
	for _, e := range experiments {
		if *exp != "" && !strings.EqualFold(*exp, e.id) {
			continue
		}
		fmt.Printf("==== %s — %s ====\n", e.id, e.desc)
		if err := e.run(*seed); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.id, err)
			os.Exit(1)
		}
		fmt.Println()
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
