// Reverse-engineer all six studied chips through the full simulated
// FIB/SEM pipeline: voxelize the ground-truth die, acquire noisy drifting
// cross sections, denoise (total variation), align (mutual information),
// reslice to planar views, segment, extract the circuits, and score the
// result against ground truth — the complete path of Sections IV and V.
// It also demonstrates the blind ROI identification of Fig. 6 on one die.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"repro/internal/chipgen"
	"repro/internal/chips"
	"repro/internal/core"
	"repro/internal/sem"
)

func main() {
	// First: find the SA region blindly on a C5 die strip (Fig. 6).
	die, err := chipgen.GenerateDie(chipgen.DefaultConfig(chips.ByID("C5")))
	if err != nil {
		log.Fatal(err)
	}
	const voxel = 8
	vol, err := chipgen.Voxelize(die.Cell, die.Cell.Bounds(), voxel)
	if err != nil {
		log.Fatal(err)
	}
	semOpts := sem.DefaultOptions()
	semOpts.Detector = "BSE"
	roi, zones, err := sem.FindROI(vol, semOpts, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Fig. 6 — blind ROI identification on C5 (%d zones found):\n", len(zones))
	fmt.Printf("  widest logic zone: %d..%d nm; ground truth SA: %d..%d nm\n\n",
		int64(roi.X0)*voxel, int64(roi.X1)*voxel, die.SA[0], die.SA[1])

	// Then: the full acquisition + reconstruction + extraction pipeline
	// on every chip. Coarse-featured chips tolerate coarse voxels; the
	// DDR5 chips (isolation gates down to 16 nm) need the fine grid.
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "chip\ttopology\tcorrect\tbitlines\ttransistors\tdim err\tresidual drift\tsim cost")
	for _, chip := range chips.All() {
		o := core.DefaultOptions()
		o.SEM.DwellUS = 12
		if chip.FeatureNM >= 24 {
			o.VoxelNM = 8
		}
		res, err := core.RunCtx(context.Background(), chip, o)
		if err != nil {
			log.Fatalf("%s: %v", chip.ID, err)
		}
		fmt.Fprintf(w, "%s\t%v\t%v\t%d/%d\t%d/%d\t%.1f%%\t%.2f px\t%.1f h\n",
			chip.ID, res.Extraction.Topology, res.Score.TopologyCorrect,
			res.Extraction.Bitlines, res.Truth.Bitlines,
			len(res.Extraction.Transistors), res.Truth.TransistorCount,
			100*res.Score.MeanRelErr, res.ResidualDriftPx, res.CostHours)
	}
	w.Flush()
	fmt.Println("\n(the paper's finding: OCSA on A4/A5/B5, classic on B4/C4/C5)")
}
