package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// pct is 100·part/whole, NaN when whole is zero.
func pct(part, whole float64) float64 {
	if whole == 0 {
		return math.NaN()
	}
	return 100 * part / whole
}

func secs(d time.Duration) float64 { return d.Seconds() }

// peakRSSMB reads the process's resident-set high-water mark (VmHWM)
// in MiB; 0 where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) == 0 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// fidelity accumulates the end-to-end fidelity metrics over completed
// operations. Each chip's figures are averaged first and the chips then
// weigh equally, so a run's chip mix does not move the result.
type fidelity struct {
	chips               map[string]*chipFidelity
	order               []string
	topologyOK, counted int
}

type chipFidelity struct {
	dimErrPct          []float64
	devAbsErr, devTrue int
}

func (f *fidelity) add(chip string, dimErrPct float64, found, truth int, topologyOK bool) {
	if f.chips == nil {
		f.chips = make(map[string]*chipFidelity)
	}
	c, ok := f.chips[chip]
	if !ok {
		c = &chipFidelity{}
		f.chips[chip] = c
		f.order = append(f.order, chip)
	}
	c.dimErrPct = append(c.dimErrPct, dimErrPct)
	c.devAbsErr += max(found-truth, truth-found)
	c.devTrue += truth
	f.counted++
	if topologyOK {
		f.topologyOK++
	}
}

// report sets dim_err_pct (mean relative W/L error), device_match_pct
// (100·(1 − Σ|found − true| / Σ true transistors)) and topology_ok_pct.
func (f *fidelity) report(r *result) {
	var dimErr, match []float64
	sort.Strings(f.order)
	for _, chip := range f.order {
		c := f.chips[chip]
		dimErr = append(dimErr, mean(c.dimErrPct))
		match = append(match, 100*(1-float64(c.devAbsErr)/float64(c.devTrue)))
	}
	r.set("dim_err_pct", mean(dimErr), "%")
	r.set("device_match_pct", mean(match), "%")
	r.set("topology_ok_pct", pct(float64(f.topologyOK), float64(f.counted)), "%")
}
