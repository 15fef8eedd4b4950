package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/chips"
	"repro/internal/core"
	"repro/internal/img"
	"repro/internal/serve"
)

// exactCounts are the per-layer counts later changes may cite as counts:
// two traced runs with the same seed must report them identically.
var exactCounts = []string{
	"denoise.iterations",
	"register.mi_evals",
	"core.gate.repaired",
	"ckpt.bytes_per_job",
	"serve.runs_per_leader",
}

func tracedConfig(t *testing.T, workload string, ops int) config {
	return config{
		workload: workload, seed: 7, seconds: time.Second, ops: ops,
		trace: true, workers: 2,
		workDir: filepath.Join(t.TempDir(), "run"),
	}
}

func TestExactCounts(t *testing.T) {
	cases := []struct {
		workload string
		ops      int
		slow     bool
	}{
		{"recon-faults", 1, false},
		{"serve-mix", 6, false},
		{"recon-clean", 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.workload, func(t *testing.T) {
			if tc.slow && testing.Short() {
				t.Skip("recon-clean takes about a minute per traced run")
			}
			var runs [2]*result
			for i := range runs {
				res, err := workloads[tc.workload](tracedConfig(t, tc.workload, tc.ops))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Fatalf("run %d: outputs not correct", i)
				}
				runs[i] = res
			}
			for _, name := range exactCounts {
				a, ok := runs[0].Metrics[name]
				if !ok {
					t.Fatalf("%s missing from the traced result", name)
				}
				if b := runs[1].Metrics[name]; a.Value != b.Value {
					t.Errorf("%s: %v then %v with the same seed", name, a.Value, b.Value)
				}
			}
		})
	}
}

// TestKnownDefects runs every input pinned in knownDefects, which the
// workloads leave out, and requires that it still fails. A failure here
// means a defect was fixed: delete its entry so the input rejoins its
// workload.
func TestKnownDefects(t *testing.T) {
	for _, d := range knownDefects {
		t.Run(d.workload+"/"+d.chip, func(t *testing.T) {
			var err error
			switch d.workload {
			case "recon-faults":
				err = reconDefect(d.chip, d.faultSeed)
			case "serve-mix":
				err = serveDefect(t, d.chip)
			default:
				t.Fatalf("no check for workload %q", d.workload)
			}
			if err == nil {
				t.Fatalf("%s on %s passes now (pinned: %s): remove it from knownDefects", d.workload, d.chip, d.why)
			}
			t.Logf("still fails: %v", err)
		})
	}
}

// reconDefect runs one recon-faults operation with the given fault seed
// and returns its error or its failed output check.
func reconDefect(chip string, faultSeed int64) error {
	op := &reconOp{spec: reconFaults, chip: chips.ByID(chip), cycle: []int64{faultSeed},
		o: extractOptions(2, img.NewPool())}
	res, err := core.RunCtx(context.Background(), op.chip, op.options(0))
	if err != nil {
		return err
	}
	return verify(res)
}

// serveDefect submits one fast-profile job for chip to a server set up
// like serve-mix's and returns its error if it does not end done.
func serveDefect(t *testing.T, chip string) error {
	m, err := startServer(filepath.Join(t.TempDir(), "server"), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.stop()
	c := newClient(m.base)
	defer c.close()
	ack, err := c.submit(serve.Request{Chip: chip, Profile: "fast", Tenant: tenants[0]})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.wait(ack.ID); err != nil {
		t.Fatal(err)
	}
	st, err := c.status(ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != serve.StateDone {
		return fmt.Errorf("%s: %s", st.State, st.Error)
	}
	return nil
}

// TestScheduleDeterministic pins that the serve-mix operation sequence is
// a function of the seed alone.
func TestScheduleDeterministic(t *testing.T) {
	a, b := newSchedule(3), newSchedule(3)
	for i := 0; i < 3*len(classDeck); i++ {
		if x, y := a.next(), b.next(); x != y {
			t.Fatalf("op %d: %+v vs %+v", i, x, y)
		}
	}
}

// TestClassDeckShares pins the submission mix the README documents:
// 50% fresh leaders, 15% followers, 10% views jobs, 25% cache hits.
func TestClassDeckShares(t *testing.T) {
	var leaders, followers, views, hits int
	for _, c := range classDeck {
		switch c {
		case classLeader:
			leaders++
		case classPair:
			leaders++
			followers++
		case classViews:
			views++
		case classHit:
			hits++
		}
	}
	if leaders != 10 || followers != 3 || views != 2 || hits != 5 {
		t.Fatalf("deck gives %d leaders, %d followers, %d views, %d hits per 20 submissions",
			leaders, followers, views, hits)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-3.7) > 1e-12 {
		t.Errorf("p90 = %v, want 3.7", got)
	}
}
