package bench

import (
	"fmt"
	"slices"
	"strings"
)

// The reports' numeric helpers: aggregates over per-trace values,
// histogram bucketing and proportional text bars.

// mean returns the arithmetic mean, or 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// minOf returns the smallest value, or 0 for an empty slice.
func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

// maxOf returns the largest value, or 0 for an empty slice.
func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Max(xs)
}

// histogram buckets values by ascending upper bounds; the last bucket
// is unbounded.
type histogram struct {
	bounds []float64 // bucket i covers (bounds[i-1], bounds[i]]
	counts []int     // len(bounds)+1, last bucket is > bounds[last]
}

// newHistogram builds a histogram over the bounds and fills it with xs.
func newHistogram(bounds []float64, xs []float64) *histogram {
	h := &histogram{bounds: bounds, counts: make([]int, len(bounds)+1)}
	for _, x := range xs {
		i := 0
		for i < len(bounds) && x > bounds[i] {
			i++
		}
		h.counts[i]++
	}
	return h
}

// bucketLabel names bucket i, e.g. "(1, 5]" or "> 80".
func (h *histogram) bucketLabel(i int) string {
	if i == len(h.bounds) {
		return fmt.Sprintf("> %g", h.bounds[len(h.bounds)-1])
	}
	lo := 0.0
	if i > 0 {
		lo = h.bounds[i-1]
	}
	return fmt.Sprintf("(%g, %g]", lo, h.bounds[i])
}

// bar renders a proportional text bar of at most width characters for
// count out of most.
func bar(count, most, width int) string {
	if most <= 0 || count <= 0 {
		return ""
	}
	return strings.Repeat("#", max(count*width/most, 1))
}
