// Fault injection: store a realistic mix of benchmark data in protected
// memory under every mode, bombard DRAM with random single-bit flips, and
// tally the outcomes — the end-to-end demonstration behind Figure 10's
// analytic model. Each mode runs one seeded fault campaign at its default
// size, which reads every flipped block back and checks it against a
// shadow copy.
package main

import (
	"fmt"
	"log"

	"cop"
	"cop/internal/reliability"
)

func main() {
	modes := []struct {
		name string
		mode cop.MemoryMode
	}{
		{"unprotected", cop.ModeUnprotected},
		{"cop", cop.ModeCOP},
		{"cop-er", cop.ModeCOPER},
		{"ecc-region", cop.ModeECCRegion},
		{"ecc-dimm", cop.ModeECCDIMM},
	}
	results := make([]*cop.FaultCampaignResult, len(modes))
	for i, m := range modes {
		res, err := cop.FaultCampaign(cop.FaultCampaignConfig{
			Mode: m.mode, Seed: 0xFA117, Modes: []cop.FailureMode{reliability.SingleBit},
		})
		if err != nil {
			log.Fatal(err)
		}
		results[i] = res
	}

	fmt.Printf("workload: %s content model, %d blocks, %d injected bit flips per mode\n\n",
		results[0].Workload, results[0].Blocks, results[0].TotalFaults())
	fmt.Printf("%-12s %10s %10s %10s %10s\n",
		"mode", "corrected", "silent", "detected", "clean")
	for i, res := range results {
		fmt.Printf("%-12s %10d %10d %10d %10d\n", modes[i].name,
			res.Outcomes(cop.FaultCorrected),
			res.Outcomes(cop.FaultSilent)+res.Outcomes(cop.FaultFalseAlias),
			res.Outcomes(cop.FaultDetected),
			res.Outcomes(cop.FaultMasked))
	}
	fmt.Println("\nunprotected: every flip that lands on consumed data is silent corruption")
	fmt.Println("cop:         flips in compressed blocks corrected; raw blocks stay exposed")
	fmt.Println("cop-er:      every single-bit flip corrected (region covers raw blocks)")
}
