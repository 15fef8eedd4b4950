// Package measure aggregates the transistor measurements produced by the
// extraction stage into per-element statistics (Section V-B performs 835
// distinct size measurements across the six chips), derives effective
// spacing sizes, and scores extraction results against generator ground
// truth.
package measure

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/chipgen"
	"repro/internal/chips"
	"repro/internal/netex"
)

// Stat is a summary of repeated measurements of one dimension.
type Stat struct {
	N                   int
	Mean, Std, Min, Max float64
}

func newStat(vals []float64) Stat {
	s := Stat{N: len(vals), Min: math.Inf(1), Max: math.Inf(-1)}
	if len(vals) == 0 {
		return Stat{}
	}
	var sum, sum2 float64
	for _, v := range vals {
		sum += v
		sum2 += v * v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(len(vals))
	variance := sum2/float64(len(vals)) - s.Mean*s.Mean
	if variance > 0 {
		s.Std = math.Sqrt(variance)
	}
	return s
}

// ElementStats summarizes every measured transistor of one element class.
type ElementStats struct {
	Element chips.Element
	W, L    Stat
}

// Dims returns the mean measured dimensions.
func (e ElementStats) Dims() chips.Dims {
	return chips.Dims{W: e.W.Mean, L: e.L.Mean}
}

// FromTransistors groups extracted transistors by element and summarizes
// their measured dimensions.
func FromTransistors(ts []netex.Transistor) map[chips.Element]ElementStats {
	ws := make(map[chips.Element][]float64)
	ls := make(map[chips.Element][]float64)
	for _, t := range ts {
		ws[t.Element] = append(ws[t.Element], t.WNM)
		ls[t.Element] = append(ls[t.Element], t.LNM)
	}
	out := make(map[chips.Element]ElementStats, len(ws))
	for e, w := range ws {
		out[e] = ElementStats{Element: e, W: newStat(w), L: newStat(ls[e])}
	}
	return out
}

// TotalMeasurements counts the individual size measurements (one width
// and one length per transistor instance), the quantity the paper
// reports as 835.
func TotalMeasurements(stats map[chips.Element]ElementStats) int {
	n := 0
	for _, s := range stats {
		n += s.W.N + s.L.N
	}
	return n
}

// Comparison scores one element's measured dimensions against ground
// truth.
type Comparison struct {
	Element      chips.Element
	TrueDims     chips.Dims
	MeasDims     chips.Dims
	RelErrW      float64
	RelErrL      float64
	CountOK      bool
	MeasuredN    int
	ExpectedMinN int
}

// Score is the fidelity of one extraction run against generator truth.
type Score struct {
	TopologyCorrect  bool
	BitlinesCorrect  bool
	Comparisons      []Comparison
	MeanRelErr       float64
	MissingElements  []chips.Element
	SpuriousElements []chips.Element
}

// CompareToTruth scores an extraction result against the generator's
// ground truth.
func CompareToTruth(res *netex.Result, truth chipgen.GroundTruth) Score {
	sc := Score{
		TopologyCorrect: res.Topology == truth.Topology,
		BitlinesCorrect: res.Bitlines == truth.Bitlines,
	}
	stats := FromTransistors(res.Transistors)
	var errSum float64
	var errN int
	var elems []chips.Element
	for e := range truth.Dims {
		elems = append(elems, e)
	}
	sort.Slice(elems, func(i, j int) bool { return elems[i] < elems[j] })
	for _, e := range elems {
		want := truth.Dims[e]
		got, ok := stats[e]
		if !ok {
			sc.MissingElements = append(sc.MissingElements, e)
			continue
		}
		c := Comparison{
			Element:   e,
			TrueDims:  want,
			MeasDims:  got.Dims(),
			RelErrW:   relErr(got.W.Mean, want.W),
			RelErrL:   relErr(got.L.Mean, want.L),
			MeasuredN: got.W.N,
		}
		c.CountOK = got.W.N > 0
		sc.Comparisons = append(sc.Comparisons, c)
		errSum += c.RelErrW + c.RelErrL
		errN += 2
	}
	for e := range stats {
		if _, ok := truth.Dims[e]; !ok {
			sc.SpuriousElements = append(sc.SpuriousElements, e)
		}
	}
	if errN > 0 {
		sc.MeanRelErr = errSum / float64(errN)
	}
	return sc
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	return math.Abs(got-want) / want
}

// Summary renders the score as a short human-readable report.
func (s Score) Summary() string {
	out := fmt.Sprintf("topology=%v bitlines=%v meanRelErr=%.1f%%",
		s.TopologyCorrect, s.BitlinesCorrect, 100*s.MeanRelErr)
	if len(s.MissingElements) > 0 {
		out += fmt.Sprintf(" missing=%v", s.MissingElements)
	}
	if len(s.SpuriousElements) > 0 {
		out += fmt.Sprintf(" spurious=%v", s.SpuriousElements)
	}
	return out
}
