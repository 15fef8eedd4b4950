package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Parser for the Prometheus text exposition format (version 0.0.4) —
// the inverse of WriteProm, shared by `hifidram top` (fleet view) and
// `hifidram metricscheck` (CI validation of /metrics). It is strict
// about the subset WriteProm emits: every TYPE comment must be
// well-formed, every sample line must parse, and a sample may not
// precede its family's TYPE line. It accepts any exposition in that
// subset, not just our own output, so it can validate third-party
// endpoints too.

// PromSample is one parsed sample line.
type PromSample struct {
	// Name is the full series name as written (including _bucket/_sum/
	// _count suffixes for histogram and summary children).
	Name string
	// Labels holds the sample's label pairs in file order.
	Labels []Label
	Value  float64
}

// Label returns the value of the named label ("" if absent).
func (s *PromSample) Label(key string) string {
	for _, l := range s.Labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

// PromFamilyInfo is the TYPE declaration of one metric family.
type PromFamilyInfo struct {
	Name string
	Type string // counter | gauge | summary | histogram | untyped
}

// PromScrape is a parsed exposition document.
type PromScrape struct {
	Families map[string]PromFamilyInfo
	Samples  []PromSample
}

// Value returns the value of the series with the given name whose
// labels all match want (extra labels on the sample are allowed when
// want is a subset). The second result reports whether it was found.
func (p *PromScrape) Value(name string, want ...Label) (float64, bool) {
	for i := range p.Samples {
		s := &p.Samples[i]
		if s.Name != name {
			continue
		}
		ok := true
		for _, w := range want {
			if s.Label(w.Key) != w.Value {
				ok = false
				break
			}
		}
		if ok {
			return s.Value, true
		}
	}
	return 0, false
}

// Series returns all samples with the given name, in file order.
func (p *PromScrape) Series(name string) []PromSample {
	var out []PromSample
	for _, s := range p.Samples {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// HistQuantile computes the q-quantile of the named histogram family
// (pass the family base, e.g. "serve_run_duration_seconds") restricted
// to samples matching the given labels, by linear interpolation within
// the cumulative buckets — the standard histogram_quantile estimate.
// Returns false when the family is absent or empty.
func (p *PromScrape) HistQuantile(family string, q float64, want ...Label) (float64, bool) {
	type bkt struct {
		le  float64
		cum float64
	}
	var bkts []bkt
	for i := range p.Samples {
		s := &p.Samples[i]
		if s.Name != family+"_bucket" {
			continue
		}
		match := true
		for _, w := range want {
			if s.Label(w.Key) != w.Value {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		leStr := s.Label("le")
		var le float64
		if leStr == "+Inf" {
			le = math.Inf(1)
		} else {
			v, err := strconv.ParseFloat(leStr, 64)
			if err != nil {
				continue
			}
			le = v
		}
		bkts = append(bkts, bkt{le: le, cum: s.Value})
	}
	if len(bkts) == 0 {
		return 0, false
	}
	sort.Slice(bkts, func(i, j int) bool { return bkts[i].le < bkts[j].le })
	total := bkts[len(bkts)-1].cum
	if total == 0 {
		return 0, false
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * total
	var prevCum, prevLE float64
	for i, b := range bkts {
		if b.cum >= rank {
			if i == len(bkts)-1 {
				// Overflow bucket: no finite upper bound; report the
				// last finite bound as the floor estimate.
				if len(bkts) >= 2 {
					return bkts[len(bkts)-2].le, true
				}
				return 0, true
			}
			inBucket := b.cum - prevCum
			if inBucket <= 0 {
				return b.le, true
			}
			frac := (rank - prevCum) / inBucket
			return prevLE + frac*(b.le-prevLE), true
		}
		prevCum, prevLE = b.cum, b.le
	}
	return bkts[len(bkts)-1].le, true
}

// ParseProm parses a text exposition document. It returns an error on
// the first malformed line: a bad TYPE comment, an unparsable sample,
// unbalanced label quoting, or a sample whose family was TYPE-declared
// after it appeared.
func ParseProm(r io.Reader) (*PromScrape, error) {
	scr := &PromScrape{Families: map[string]PromFamilyInfo{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	// sampled tracks family bases that have produced samples, to reject
	// a TYPE line that arrives after its family's samples.
	sampled := map[string]bool{}
	for sc.Scan() {
		lineNo++
		line := strings.TrimRight(sc.Text(), " \t\r")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			rest := strings.TrimSpace(line[1:])
			if strings.HasPrefix(rest, "TYPE ") {
				fields := strings.Fields(rest)
				if len(fields) != 3 {
					return nil, fmt.Errorf("line %d: malformed TYPE comment %q", lineNo, line)
				}
				name, typ := fields[1], fields[2]
				switch typ {
				case "counter", "gauge", "summary", "histogram", "untyped":
				default:
					return nil, fmt.Errorf("line %d: unknown metric type %q", lineNo, typ)
				}
				if _, dup := scr.Families[name]; dup {
					return nil, fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, name)
				}
				if sampled[name] {
					return nil, fmt.Errorf("line %d: TYPE for %q after its samples", lineNo, name)
				}
				scr.Families[name] = PromFamilyInfo{Name: name, Type: typ}
			}
			// HELP and other comments are ignored.
			continue
		}
		s, err := parsePromSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		scr.Samples = append(scr.Samples, s)
		sampled[promFamilyBase(s.Name)] = true
		sampled[s.Name] = true
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return scr, nil
}

// promFamilyBase strips the histogram/summary child suffixes so a
// sample can be matched to its family's TYPE declaration.
func promFamilyBase(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return name[:len(name)-len(suf)]
		}
	}
	return name
}

// parsePromSample parses one sample line: name[{labels}] value [ts].
func parsePromSample(line string) (PromSample, error) {
	var s PromSample
	i := 0
	for i < len(line) {
		c := line[i]
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			break
		}
		i++
	}
	if i == 0 {
		return s, fmt.Errorf("missing metric name in %q", line)
	}
	s.Name = line[:i]
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		end, labels, err := parsePromLabels(rest)
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = rest[end:]
	}
	rest = strings.TrimLeft(rest, " \t")
	if rest == "" {
		return s, fmt.Errorf("missing value in %q", line)
	}
	fields := strings.Fields(rest)
	if len(fields) > 2 {
		return s, fmt.Errorf("trailing garbage in %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %v", fields[0], err)
	}
	s.Value = v
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	return s, nil
}

// parsePromLabels parses a {k="v",...} block starting at body[0]=='{'
// and returns the index just past the closing brace.
func parsePromLabels(body string) (end int, labels []Label, err error) {
	i := 1 // past '{'
	for {
		// Skip whitespace and a trailing comma before '}'.
		for i < len(body) && (body[i] == ' ' || body[i] == '\t') {
			i++
		}
		if i < len(body) && body[i] == '}' {
			return i + 1, labels, nil
		}
		start := i
		for i < len(body) {
			c := body[i]
			ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
				(i > start && c >= '0' && c <= '9')
			if !ok {
				break
			}
			i++
		}
		if i == start {
			return 0, nil, fmt.Errorf("bad label name at %q", body[start:])
		}
		key := body[start:i]
		if i >= len(body) || body[i] != '=' {
			return 0, nil, fmt.Errorf("missing '=' after label %q", key)
		}
		i++
		if i >= len(body) || body[i] != '"' {
			return 0, nil, fmt.Errorf("missing opening quote for label %q", key)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(body) {
				return 0, nil, fmt.Errorf("unterminated value for label %q", key)
			}
			c := body[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(body) {
					return 0, nil, fmt.Errorf("dangling escape in label %q", key)
				}
				switch body[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return 0, nil, fmt.Errorf("bad escape \\%c in label %q", body[i+1], key)
				}
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		labels = append(labels, Label{Key: key, Value: val.String()})
		if i < len(body) && body[i] == ',' {
			i++
			continue
		}
		if i < len(body) && body[i] == '}' {
			return i + 1, labels, nil
		}
		return 0, nil, fmt.Errorf("expected ',' or '}' after label %q", key)
	}
}

// ValidateProm parses the exposition and additionally checks the
// structural invariants CI relies on: every sample belongs to a
// TYPE-declared family; no series (name plus label set) appears twice;
// _bucket samples and le-labeled samples occur only as the buckets of a
// histogram family; histogram families have a le="+Inf" bucket whose
// value equals their _count, and cumulative bucket counts are
// monotonically non-decreasing in le. Returns the scrape on success.
func ValidateProm(r io.Reader) (*PromScrape, error) {
	scr, err := ParseProm(r)
	if err != nil {
		return nil, err
	}
	values := make(map[string]float64, len(scr.Samples))
	for _, s := range scr.Samples {
		fam, ok := scr.Families[promFamilyBase(s.Name)]
		if !ok {
			fam, ok = scr.Families[s.Name]
		}
		if !ok {
			return nil, fmt.Errorf("sample %s has no TYPE declaration", s.Name)
		}
		if strings.HasSuffix(s.Name, "_bucket") || hasLabel(s.Labels, "le") {
			if fam.Type != "histogram" || s.Name != fam.Name+"_bucket" {
				return nil, fmt.Errorf("sample %s: histogram bucket in %s family %s", s.Name, fam.Type, fam.Name)
			}
		}
		key := seriesKey(s.Name, s.Labels, "")
		if _, dup := values[key]; dup {
			return nil, fmt.Errorf("series %s appears twice", key)
		}
		values[key] = s.Value
	}
	for name, fam := range scr.Families {
		if fam.Type != "histogram" {
			continue
		}
		// Group buckets by their non-le label set.
		type group struct {
			countKey string
			les      []float64
			cums     []float64
			inf      float64
			has      bool
		}
		groups := map[string]*group{}
		for _, s := range scr.Samples {
			if s.Name != name+"_bucket" {
				continue
			}
			sg := seriesKey(name, s.Labels, "le")
			g := groups[sg]
			if g == nil {
				g = &group{countKey: seriesKey(name+"_count", s.Labels, "le")}
				groups[sg] = g
			}
			le := s.Label("le")
			if le == "+Inf" {
				g.inf = s.Value
				g.has = true
				continue
			}
			v, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return nil, fmt.Errorf("histogram %s: bad le %q", name, le)
			}
			g.les = append(g.les, v)
			g.cums = append(g.cums, s.Value)
		}
		for sg, g := range groups {
			if !g.has {
				return nil, fmt.Errorf("histogram %s: missing le=\"+Inf\" bucket", sg)
			}
			idx := make([]int, len(g.les))
			for i := range idx {
				idx[i] = i
			}
			sort.Slice(idx, func(a, b int) bool { return g.les[idx[a]] < g.les[idx[b]] })
			prev := 0.0
			for _, i := range idx {
				if g.cums[i] < prev {
					return nil, fmt.Errorf("histogram %s: bucket counts not cumulative at le=%g", sg, g.les[i])
				}
				prev = g.cums[i]
			}
			if g.inf < prev {
				return nil, fmt.Errorf("histogram %s: +Inf bucket below finite buckets", sg)
			}
			if count, ok := values[g.countKey]; ok && count != g.inf {
				return nil, fmt.Errorf("histogram %s: _count %g != +Inf bucket %g", sg, count, g.inf)
			}
		}
	}
	return scr, nil
}

// hasLabel reports whether the label set carries key.
func hasLabel(ls []Label, key string) bool {
	for _, l := range ls {
		if l.Key == key {
			return true
		}
	}
	return false
}

// seriesKey renders name{k="v",...} with the labels sorted by key and
// the skip label left out: equal label sets in any file order give the
// same key, and quoted values keep distinct sets distinct.
func seriesKey(name string, ls []Label, skip string) string {
	parts := make([]string, 0, len(ls))
	for _, l := range ls {
		if l.Key != skip {
			parts = append(parts, l.Key+"="+strconv.Quote(l.Value))
		}
	}
	sort.Strings(parts)
	return name + "{" + strings.Join(parts, ",") + "}"
}
