package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) for a metric
// Snapshot. The mapping:
//
//   - counters render as "<name>_total" counter series (registry dots
//     become underscores: serve.cache_hits -> serve_cache_hits_total);
//   - gauges render as gauges under their sanitized name;
//   - duration histograms (values in seconds) render as "<name>_seconds"
//     histograms: one cumulative _bucket series per bound plus
//     le="+Inf", then _sum and _count.
//
// Labeled registry keys (built with Series) carry their labels onto
// every series they produce; the histogram's "le" label is appended
// after them. Families and series are emitted in sorted order, so the
// exposition is deterministic for a given snapshot — the golden-file
// test pins it byte for byte.

// ContentTypeProm is the Content-Type of the text exposition.
const ContentTypeProm = "text/plain; version=0.0.4; charset=utf-8"

// promSeries is one output line before formatting.
type promSeries struct {
	labels string // rendered {...} suffix, "" for none
	value  float64
	ivalue int64
	isInt  bool
}

// promFamily groups series sharing a family name and TYPE.
type promFamily struct {
	name string // full family name, e.g. serve_queue_wait_seconds
	typ  string // counter | gauge | histogram
	// lines holds the family's series, each with its name suffix ("",
	// "_bucket", "_sum" or "_count").
	lines []promLine
}

type promLine struct {
	suffix string
	// sortLabels orders series within a family; for histogram buckets
	// it is the label set WITHOUT le, so the ascending-le insertion
	// order of a bucket block survives the stable sort.
	sortLabels string
	s          promSeries
}

// WriteProm renders the snapshot as Prometheus text exposition.
func WriteProm(w io.Writer, snap *Snapshot) error {
	fams := map[string]*promFamily{}
	family := func(name, typ string) *promFamily {
		f, ok := fams[name]
		if !ok {
			f = &promFamily{name: name, typ: typ}
			fams[name] = f
		}
		return f
	}
	if snap != nil {
		for key, v := range snap.Counters {
			base, labels := promKey(key)
			f := family(base+"_total", "counter")
			f.lines = append(f.lines, promLine{sortLabels: labels, s: promSeries{labels: labels, ivalue: v, isInt: true}})
		}
		for key, v := range snap.Gauges {
			base, labels := promKey(key)
			f := family(base, "gauge")
			f.lines = append(f.lines, promLine{sortLabels: labels, s: promSeries{labels: labels, value: v}})
		}
		for key, h := range snap.Histograms {
			if h == nil {
				continue
			}
			base, labels := promKey(key)
			f := family(base+"_seconds", "histogram")
			var cum uint64
			for i := 0; i < HistBuckets; i++ {
				cum += h.Counts[i]
				le := strconv.FormatFloat(histBounds[i], 'g', -1, 64)
				f.lines = append(f.lines, promLine{suffix: "_bucket", sortLabels: labels,
					s: promSeries{labels: withLE(labels, le), ivalue: int64(cum), isInt: true}})
			}
			cum += h.Counts[HistBuckets]
			f.lines = append(f.lines, promLine{suffix: "_bucket", sortLabels: labels,
				s: promSeries{labels: withLE(labels, "+Inf"), ivalue: int64(cum), isInt: true}})
			f.lines = append(f.lines,
				promLine{suffix: "_sum", sortLabels: labels, s: promSeries{labels: labels, value: h.Sum}},
				promLine{suffix: "_count", sortLabels: labels, s: promSeries{labels: labels, ivalue: int64(h.Count), isInt: true}},
			)
		}
	}

	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := fams[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		sort.SliceStable(f.lines, func(a, b int) bool {
			la, lb := f.lines[a], f.lines[b]
			if la.suffix != lb.suffix {
				// _bucket < _count < _sum alphabetically keeps each
				// labeled sub-series block contiguous.
				return la.suffix < lb.suffix
			}
			// Equal keys (one histogram's bucket block) keep insertion
			// order — ascending le — under the stable sort.
			return la.sortLabels < lb.sortLabels
		})
		for _, ln := range f.lines {
			val := strconv.FormatFloat(ln.s.value, 'g', -1, 64)
			if ln.s.isInt {
				val = strconv.FormatInt(ln.s.ivalue, 10)
			}
			if _, err := fmt.Fprintf(w, "%s%s%s %s\n", f.name, ln.suffix, ln.s.labels, val); err != nil {
				return err
			}
		}
	}
	return nil
}

// promKey splits a registry key into its sanitized Prometheus family
// base name and the rendered label suffix.
func promKey(key string) (base, labels string) {
	name, ls := SplitSeries(key)
	return PromName(name), renderLabels(ls)
}

// renderLabels renders {k="v",...} with exposition-format escaping.
func renderLabels(ls []Label) string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(sanitizeLabelKey(l.Key))
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// withLE appends the le label to an already-rendered label suffix.
func withLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// escapeLabelValue escapes backslash, quote and newline per the
// exposition format. Series-built values never contain them, but the
// renderer stays total for hand-written registry keys.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}
