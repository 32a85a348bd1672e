package telemetry

// Snapshot merging for fleet aggregation: the cluster coordinator folds
// per-worker registry snapshots (pushed on heartbeats) into its own to
// serve a fleet-wide /cluster/metrics view. The semantics per type:
//
//   - counters / float counters: summed. Monotonicity across worker
//     restarts is the *caller's* job (the coordinator keeps a high-water
//     contribution per worker) — MergeInto itself just adds.
//   - gauges: summed. The fleet level of an instantaneous
//     quantity (queue depth, resident bytes, busy workers) is the sum of
//     the per-process levels.
//   - histograms: bucket-wise sum when the bucket layouts match
//     (which they do across processes running the same binary); on a
//     layout mismatch the source histogram is skipped rather than
//     corrupted. P50/P99 are recomputed from the merged buckets.

// MergeInto folds src into dst. dst's maps must be non-nil (a
// Registry.Snapshot always satisfies this).
func MergeInto(dst *Snapshot, src Snapshot) {
	for k, v := range src.Counters {
		dst.Counters[k] += v
	}
	if len(src.FloatCounters) > 0 && dst.FloatCounters == nil {
		dst.FloatCounters = make(map[string]float64, len(src.FloatCounters))
	}
	for k, v := range src.FloatCounters {
		dst.FloatCounters[k] += v
	}
	for k, v := range src.Gauges {
		dst.Gauges[k] += v
	}
	for k, h := range src.Histograms {
		dst.Histograms[k] = mergeHistogram(dst.Histograms[k], h)
	}
}

func mergeHistogram(dst, src HistogramSnapshot) HistogramSnapshot {
	if dst.Count == 0 && len(dst.Counts) == 0 {
		out := src
		out.Bounds = append([]float64(nil), src.Bounds...)
		out.Counts = append([]int64(nil), src.Counts...)
		return out
	}
	if !sameBounds(dst.Bounds, src.Bounds) {
		return dst // incompatible layout: keep what we have
	}
	out := HistogramSnapshot{
		Count:  dst.Count + src.Count,
		Sum:    dst.Sum + src.Sum,
		Bounds: dst.Bounds,
		Counts: append([]int64(nil), dst.Counts...),
	}
	for i := range src.Counts {
		if i < len(out.Counts) {
			out.Counts[i] += src.Counts[i]
		}
	}
	out.P50 = out.Quantile(0.50)
	out.P99 = out.Quantile(0.99)
	return out
}

func sameBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
