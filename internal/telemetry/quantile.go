package telemetry

// Fixed-bucket quantile estimation. The registry's histograms are the
// only latency record the daemon keeps — no raw sample arrays — so tail
// reporting (p50/p99 on /metrics) interpolates quantiles from bucket
// counts, exactly the way Prometheus histogram_quantile does:
//
//   - locate the bucket where the cumulative count crosses q*count;
//   - interpolate linearly between the bucket's lower and upper bound
//     by the rank's position inside the bucket;
//   - a rank landing in the +Inf overflow bucket reports the last
//     finite bound (the estimate cannot exceed what was measured into
//     finite buckets);
//   - an empty histogram reports 0.
//
// The estimate is exact at bucket boundaries and linearly approximate
// inside a bucket; picking bucket layouts whose resolution matches the
// SLO thresholds (LatencyBuckets for sub-second submit latencies) keeps
// the error far below gate margins.

// Quantile estimates the q-quantile (0 <= q <= 1) of the observed
// distribution from the snapshot's bucket counts. Out-of-range q is
// clamped (NaN counts as out of range and clamps to 1, reporting the
// max estimate instead of propagating NaN through the interpolation);
// an empty histogram yields 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count <= 0 {
		return 0
	}
	if q != q { // NaN: both range clamps below are false
		q = 1
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := int64(0)
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(s.Bounds) {
			// Overflow bucket: no finite upper edge to interpolate
			// toward. Report the largest finite bound (or 0 when the
			// histogram has no finite buckets at all).
			if len(s.Bounds) == 0 {
				return 0
			}
			return s.Bounds[len(s.Bounds)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = s.Bounds[i-1]
		} else if s.Bounds[0] < 0 {
			// All-negative first bucket: treating 0 as the lower edge
			// would interpolate upward past the bound.
			lower = s.Bounds[0]
		}
		upper := s.Bounds[i]
		frac := (rank - float64(prev)) / float64(c)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		return lower + (upper-lower)*frac
	}
	// Unreachable when counts sum to Count; be safe on skewed snapshots.
	if len(s.Bounds) == 0 {
		return 0
	}
	return s.Bounds[len(s.Bounds)-1]
}

// LatencyBuckets is the fine-grained request-latency bucketing used for
// HTTP submit paths and the load generator: 250µs to ~2.7s, growing by
// 1.5x, so p99 estimates stay within one bucket (±50%) of the true tail
// across the whole SLO range. Coarser campaign phases keep using
// SecondsBuckets.
func LatencyBuckets() []float64 { return ExponentialBuckets(0.00025, 1.5, 24) }
