// Mini Table 1: generate random fat-tree failure scenarios, pre-filter the
// CBD-prone ones statically, drive them with the enterprise workload and
// count deadlock cases per flow-control scheme. A reduced-scale, serial
// version of the paper's §6.2.3 sweep built on the public facade only;
// `gfcsim -exp table1` runs the full one, with parallel workers,
// checkpoints, run budgets and metrics reports.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	gfc "github.com/gfcsim/gfc"
)

func main() {
	k := flag.Int("k", 4, "fat-tree arity")
	networks := flag.Int("networks", 120, "random scenarios to scan")
	repeats := flag.Int("repeats", 2, "workload repeats per prone scenario")
	seed := flag.Int64("seed", 1, "base seed")
	faultsFlag := flag.String("faults", "", "fault scenario: a preset name or a JSON spec file path,\ninjected into every simulated run (deterministic per -seed); the fat-tree\nsweep fits feedback-delay, flap and degrade, not the ring-only resume-loss\nand feedback-loss")
	flag.Parse()

	var faultSpec *gfc.FaultSpec
	if *faultsFlag != "" {
		var err error
		if strings.ContainsAny(*faultsFlag, "./\\") {
			faultSpec, err = gfc.LoadFaultSpec(*faultsFlag)
		} else {
			faultSpec, err = gfc.FaultPreset(*faultsFlag)
		}
		if err != nil {
			panic(err)
		}
	}

	type scheme struct {
		name    string
		factory gfc.FlowControlFactory
	}
	schemes := []scheme{
		{"PFC", gfc.NewPFC(gfc.PFCConfig{XOFF: 280 * gfc.KB, XON: 277 * gfc.KB})},
		{"GFC-buffer", gfc.NewGFCBuffer(gfc.GFCBufferConfig{B1: 275 * gfc.KB, Bm: 294 * gfc.KB})},
		{"CBFC", gfc.NewCBFC(gfc.CBFCConfig{Period: 52400 * gfc.Nanosecond})},
		{"GFC-time", gfc.NewGFCTime(gfc.GFCTimeConfig{Period: 52400 * gfc.Nanosecond, B0: 153 * gfc.KB, Bm: 294 * gfc.KB})},
	}

	deadlocks := make([]int, len(schemes))
	prone := 0
	for i := 0; i < *networks; i++ {
		topo := gfc.FatTree(*k, gfc.DefaultLinkParams())
		rng := rand.New(rand.NewSource(*seed + int64(i)))
		topo.FailRandomLinks(rng, 0.05)
		tab := gfc.NewSPF(topo)
		if !gfc.CBDFromAllPairs(topo, tab, gfc.EdgeRacks(topo)).HasCycle() {
			continue // statically CBD-free: cannot deadlock
		}
		prone++
		// Compile the fault scenario against this scenario's topology (the
		// failed-link sets differ), once for all schemes and repeats.
		var faultPlan *gfc.FaultPlan
		if faultSpec != nil {
			var err error
			if faultPlan, err = faultSpec.Compile(topo); err != nil {
				fmt.Fprintf(os.Stderr, "-faults %s does not fit scenario %d: %v\n", *faultsFlag, i+1, err)
				os.Exit(1)
			}
		}
		for si, s := range schemes {
			for r := 0; r < *repeats; r++ {
				repeatSeed := *seed*1000 + int64(i*(*repeats)+r)
				opt := gfc.Options{BufferSize: 300 * gfc.KB, FlowControl: s.factory}
				if faultPlan != nil {
					opt.Faults = faultPlan.NewInjector(repeatSeed)
				}
				sim, err := gfc.NewSimulation(topo, opt)
				if err != nil {
					panic(err)
				}
				gen := gfc.NewTrafficGenerator(sim, tab,
					gfc.EnterpriseWorkload(), gfc.EdgeRacks(topo), repeatSeed)
				if err := gen.Start(); err != nil {
					panic(err)
				}
				det := gfc.NewDeadlockDetector(sim)
				det.Install()
				sim.Run(20 * gfc.Millisecond)
				if det.Deadlocked() != nil {
					deadlocks[si]++
					break // any deadlocked repeat makes the scenario a case
				}
			}
		}
		fmt.Printf("scenario %d/%d is CBD-prone (%d so far)\n", i+1, *networks, prone)
	}

	fmt.Printf("\nk=%d: %d scenarios scanned, %d CBD-prone\n", *k, *networks, prone)
	if faultSpec != nil {
		fmt.Printf("injected faults: %s\n", faultSpec.Name)
	}
	fmt.Println("Deadlock cases (any repeat deadlocked):")
	for si, s := range schemes {
		fmt.Printf("  %-12s %d\n", s.name, deadlocks[si])
	}
}
