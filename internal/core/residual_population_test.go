//go:build residualcheck

package core

import (
	"fmt"
	"testing"

	"repro/internal/chips"
)

// TestResidualPopulation runs checkResidual over the residual
// population: the six chips, clean and at fault seeds 1-3, under dwell
// 12 as extract runs it, serve's default profile and serve's fast
// profile (72 runs). Every run must report the full search's residual
// and plan. It takes minutes, so it builds only under the residualcheck
// tag: make residual-check.
func TestResidualPopulation(t *testing.T) {
	finished, total := 0, 0
	for _, chip := range chips.All() {
		dwell12 := DefaultOptions()
		dwell12.SEM.DwellUS = 12
		for _, p := range []struct {
			name string
			o    Options
		}{{"dwell12", dwell12}, {"default", DefaultOptions()}, {"fast", goldenOptions(chip, false)}} {
			for seed := int64(0); seed <= 3; seed++ {
				o := p.o
				if seed > 0 {
					o = withFaultSeed(o, seed)
				}
				name := fmt.Sprintf("%s/%s/seed%d", chip.ID, p.name, seed)
				if checkResidual(t, residualCase{name, chip, o}) {
					finished++
				}
				total++
			}
		}
	}
	t.Logf("%d of %d runs finished; every run matched the full search up to its plan", finished, total)
}
