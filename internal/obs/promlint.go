package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"strconv"
	"strings"
)

// PromLint validates a Prometheus text-exposition (0.0.4) document the
// way promtool's linter would: metric and label names must be legal, every
// sample must belong to a family with a prior TYPE line, histogram buckets
// must be cumulative (monotone, ending at +Inf) with the +Inf bucket equal
// to _count, and no sample (name + label set) may repeat. It returns one
// message per problem; an empty slice means the document is clean.
//
// It lives here rather than in cmd/xrtrace so the serving tests, the
// obs tests, and the CI lint step all run the same checks.
func PromLint(r io.Reader) []string {
	var problems []string
	addf := func(line int, format string, args ...any) {
		problems = append(problems, fmt.Sprintf("line %d: %s", line, fmt.Sprintf(format, args...)))
	}

	types := make(map[string]string) // family -> declared type
	seen := make(map[string]int)     // name{labels} -> line
	type histState struct {
		lastLe   float64
		lastCum  float64
		infSeen  bool
		infValue float64
		count    float64
		hasCount bool
		line     int
	}
	hists := make(map[string]*histState) // family + non-le labels -> bucket state

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && (fields[1] == "TYPE" || fields[1] == "HELP") {
				if len(fields) < 3+boolToInt(fields[1] == "TYPE") {
					addf(lineNo, "malformed %s line", fields[1])
					continue
				}
				name := fields[2]
				if !metricNameRe.MatchString(name) {
					addf(lineNo, "invalid metric name %q", name)
				}
				if fields[1] == "TYPE" {
					if _, dup := types[name]; dup {
						addf(lineNo, "duplicate TYPE for %q", name)
					}
					typ := fields[3]
					switch typ {
					case "counter", "gauge", "histogram", "summary", "untyped":
					default:
						addf(lineNo, "unknown type %q for %q", typ, name)
					}
					types[name] = typ
				}
			}
			continue
		}

		name, labels, value, ok := parseSample(line)
		if !ok {
			addf(lineNo, "unparseable sample %q", line)
			continue
		}
		if !metricNameRe.MatchString(name) {
			addf(lineNo, "invalid metric name %q", name)
			continue
		}
		family := name
		suffix := ""
		for _, s := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, s)
			if base != name {
				if t, declared := types[base]; declared && (t == "histogram" || t == "summary") {
					family, suffix = base, s
				}
				break
			}
		}
		typ, declared := types[family]
		if !declared {
			addf(lineNo, "sample %q has no preceding TYPE line", name)
		}
		if typ == "histogram" && suffix == "" {
			addf(lineNo, "histogram family %q has bare sample %q", family, name)
		}
		if suffix == "_bucket" && typ != "histogram" {
			addf(lineNo, "_bucket sample %q outside a histogram family", name)
		}

		key := name + "{" + canonicalLabels(labels, false) + "}"
		if prev, dup := seen[key]; dup {
			addf(lineNo, "duplicate sample %s (first at line %d)", key, prev)
		}
		seen[key] = lineNo

		if typ == "histogram" {
			hkey := family + "{" + canonicalLabels(labels, true) + "}"
			st := hists[hkey]
			if st == nil {
				st = &histState{lastLe: math.Inf(-1)}
				hists[hkey] = st
			}
			st.line = lineNo
			switch suffix {
			case "_bucket":
				leStr, found := labelValue(labels, "le")
				if !found {
					addf(lineNo, "histogram bucket %q missing le label", name)
					break
				}
				le := math.Inf(1)
				if leStr != "+Inf" {
					var err error
					if le, err = strconv.ParseFloat(leStr, 64); err != nil {
						addf(lineNo, "bad le value %q", leStr)
						break
					}
				}
				if le <= st.lastLe {
					addf(lineNo, "bucket le=%s not increasing for %s", leStr, hkey)
				}
				if value < st.lastCum {
					addf(lineNo, "bucket counts not cumulative for %s (%g < %g)", hkey, value, st.lastCum)
				}
				st.lastLe, st.lastCum = le, value
				if math.IsInf(le, 1) {
					st.infSeen, st.infValue = true, value
				}
			case "_count":
				st.count, st.hasCount = value, true
			}
		}
	}
	if err := sc.Err(); err != nil {
		addf(lineNo, "read: %v", err)
	}
	for hkey, st := range hists {
		if !st.infSeen {
			addf(st.line, "histogram %s has no +Inf bucket", hkey)
		}
		if st.infSeen && st.hasCount && st.infValue != st.count {
			addf(st.line, "histogram %s +Inf bucket %g != _count %g", hkey, st.infValue, st.count)
		}
	}
	return problems
}

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// parseSample splits one sample line into name, labels, and value. The
// optional trailing timestamp is accepted and ignored.
func parseSample(line string) (name string, labels []PromLabel, value float64, ok bool) {
	rest := line
	if i := strings.IndexAny(rest, "{ "); i >= 0 && rest[i] == '{' {
		name = rest[:i]
		end := strings.LastIndex(rest, "}")
		if end < i {
			return "", nil, 0, false
		}
		var lok bool
		if labels, lok = parseLabels(rest[i+1 : end]); !lok {
			return "", nil, 0, false
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		fields := strings.SplitN(rest, " ", 2)
		if len(fields) != 2 {
			return "", nil, 0, false
		}
		name, rest = fields[0], strings.TrimSpace(fields[1])
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, 0, false
	}
	v, err := parsePromValue(fields[0])
	if err != nil {
		return "", nil, 0, false
	}
	return name, labels, v, true
}

func parsePromLabelsError() ([]PromLabel, bool) { return nil, false }

func labelValue(labels []PromLabel, name string) (string, bool) {
	for _, l := range labels {
		if l.Name == name {
			return l.Value, true
		}
	}
	return "", false
}

func parseLabels(s string) ([]PromLabel, bool) {
	var out []PromLabel
	for len(s) > 0 {
		eq := strings.Index(s, "=")
		if eq < 0 {
			return parsePromLabelsError()
		}
		name := strings.TrimSpace(s[:eq])
		if !labelNameRe.MatchString(name) {
			return parsePromLabelsError()
		}
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return parsePromLabelsError()
		}
		s = s[1:]
		var val strings.Builder
		closed := false
		for i := 0; i < len(s); i++ {
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(s[i])
				}
				continue
			}
			if c == '"' {
				s = s[i+1:]
				closed = true
				break
			}
			val.WriteByte(c)
		}
		if !closed {
			return parsePromLabelsError()
		}
		out = append(out, PromLabel{Name: name, Value: val.String()})
		s = strings.TrimPrefix(strings.TrimSpace(s), ",")
		s = strings.TrimSpace(s)
	}
	return out, true
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// canonicalLabels renders a label set sorted by name; dropLe excludes the
// le label so all buckets of one histogram series share a key.
func canonicalLabels(labels []PromLabel, dropLe bool) string {
	parts := make([]string, 0, len(labels))
	for _, l := range labels {
		if dropLe && l.Name == "le" {
			continue
		}
		parts = append(parts, l.Name+"="+l.Value)
	}
	// insertion sort; label sets are tiny
	for i := 1; i < len(parts); i++ {
		for j := i; j > 0 && parts[j] < parts[j-1]; j-- {
			parts[j], parts[j-1] = parts[j-1], parts[j]
		}
	}
	return strings.Join(parts, ",")
}
