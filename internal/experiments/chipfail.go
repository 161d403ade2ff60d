package experiments

import (
	"fmt"

	"cop/internal/faultsim"
	"cop/internal/memctrl"
	"cop/internal/reliability"
)

func init() {
	register("chipfail", chipFail)
}

// chipFail runs the whole-chip-failure campaign across every protection
// mode: a faultsim campaign of multi-bank faults — one ×8 chip failing
// under a block — read back through the controller and checked against
// the shadow copy. Only the COP-CK-ER extension survives; conventional
// SECDED (even on an ECC DIMM) cannot, which is exactly why the paper
// points to chipkill as the natural extension (§5).
func chipFail(o Options) (*Report, error) {
	modes := []struct {
		name string
		m    memctrl.Mode
	}{
		{"Unprotected", memctrl.Unprotected},
		{"COP", memctrl.COP},
		{"COP-ER", memctrl.COPER},
		{"ECC DIMM", memctrl.ECCDIMM},
		{"COP-CK-ER", memctrl.COPChipkill},
	}
	blocks := o.Samples / 4
	if blocks < 128 {
		blocks = 128
	}
	faults := blocks // one campaign pass
	r := &Report{
		ID:     "chipfail",
		Title:  "Whole-chip (×8) failure outcomes per protection mode",
		Header: []string{"mode", "corrected", "silent", "detected", "silent rate"},
		Notes: []string{
			fmt.Sprintf("gcc content, %d blocks, %d injected chip failures", blocks, faults),
			"silent = wrong data returned without error; detected = error raised (crash, not corruption)",
			"the §5 chipkill extension (COP-CK-ER) is the only design that corrects these",
		},
	}

	rows := make([][]string, len(modes))
	if err := forEach(len(modes), func(mi int) error {
		res, err := faultsim.Run(faultsim.Config{
			Mode: modes[mi].m, Seed: 0xC41F, Blocks: blocks, Injections: faults, Workload: "gcc",
			Modes: []reliability.FailureMode{reliability.MultiBank},
		})
		if err != nil {
			return err
		}
		if n := res.BackgroundMismatches; n != 0 {
			// Restoring a failed block damaged another one: a controller
			// bug, not a property of the scheme.
			return fmt.Errorf("chipfail %s: %d background reads refuted by the shadow copy", modes[mi].name, n)
		}
		corrected := res.Outcomes(faultsim.Corrected)
		silent := res.Outcomes(faultsim.Silent) + res.Outcomes(faultsim.FalseAlias)
		detected := res.Outcomes(faultsim.Detected)
		rows[mi] = []string{
			modes[mi].name,
			fmt.Sprint(corrected), fmt.Sprint(silent), fmt.Sprint(detected),
			pct(float64(silent) / float64(corrected+silent+detected)),
		}
		return nil
	}); err != nil {
		return nil, err
	}
	r.Rows = rows
	return r, nil
}
