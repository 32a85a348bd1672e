package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): families sorted by name, one
// HELP/TYPE header per family, histograms expanded into cumulative
// _bucket/_sum/_count series. The values come from one Snapshot, so a
// scrape is internally consistent.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()

	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, &family{name: f.name, help: f.help, typ: f.typ,
			keys: append([]string(nil), f.keys...)})
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, key := range f.keys {
			var err error
			switch f.typ {
			case "counter":
				if fv, ok := snap.FloatCounters[key]; ok {
					_, err = fmt.Fprintf(w, "%s %s\n", key, strconv.FormatFloat(fv, 'g', -1, 64))
				} else {
					_, err = fmt.Fprintf(w, "%s %d\n", key, snap.Counters[key])
				}
			case "gauge":
				_, err = fmt.Fprintf(w, "%s %d\n", key, snap.Gauges[key])
			case "histogram":
				err = writePromHistogram(w, f.name, key, snap.Histograms[key])
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// withLabel splices an extra label into a rendered key and renames the
// base: withLabel("m{a="1"}", "m", "m_bucket", `le="5"`) returns
// `m_bucket{a="1",le="5"}`.
func withLabel(key, base, newBase, label string) string {
	rest := strings.TrimPrefix(key, base)
	if rest == "" {
		return newBase + "{" + label + "}"
	}
	// rest is "{...}"
	return newBase + rest[:len(rest)-1] + "," + label + "}"
}

// rename swaps a key's base name, keeping its label set.
func rename(key, base, newBase string) string {
	return newBase + strings.TrimPrefix(key, base)
}

func writePromHistogram(w io.Writer, base, key string, h HistogramSnapshot) error {
	cum := int64(0)
	for i, bound := range h.Bounds {
		cum += h.Counts[i]
		le := strconv.FormatFloat(bound, 'g', -1, 64)
		if _, err := fmt.Fprintf(w, "%s %d\n",
			withLabel(key, base, base+"_bucket", `le="`+le+`"`), cum); err != nil {
			return err
		}
	}
	cum += h.Counts[len(h.Counts)-1]
	if _, err := fmt.Fprintf(w, "%s %d\n",
		withLabel(key, base, base+"_bucket", `le="+Inf"`), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s %s\n", rename(key, base, base+"_sum"),
		strconv.FormatFloat(h.Sum, 'g', -1, 64)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", rename(key, base, base+"_count"), h.Count)
	return err
}
