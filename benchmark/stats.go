package main

import (
	"math"
	"sort"
)

// quantile is the nearest-rank q-quantile of a sorted sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps a product like 0.9*100 = 90.00000000000001 on
	// its own rank.
	idx := int(math.Ceil(q*float64(len(sorted))-1e-9)) - 1
	return sorted[min(max(idx, 0), len(sorted)-1)]
}

// percentileLadder lists the tail percentiles a report may quote, in
// rising order.
var percentileLadder = []float64{0.75, 0.90, 0.95, 0.99, 0.999}

// highestPercentile returns the highest ladder percentile that still
// has at least ten samples beyond it, or 0.5 when even the lowest rung
// has fewer: a tail percentile resting on a handful of samples is the
// sample maximum under another name.
func highestPercentile(n int) float64 {
	best := 0.5
	for _, p := range percentileLadder {
		rank := int(math.Ceil(p*float64(n) - 1e-9))
		if n-rank >= 10 {
			best = p
		}
	}
	return best
}

// summary describes one timing sample the way every report quotes it:
// the median, the highest percentile the sample supports, and the
// sample count.
type summary struct {
	N       int     `json:"n"`
	Median  float64 `json:"median"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	HighPct float64 `json:"high_pct"`
	High    float64 `json:"high"`
}

func summarize(sample []float64) summary {
	if len(sample) == 0 {
		return summary{}
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	p := highestPercentile(len(s))
	return summary{
		N: len(s), Median: median(s), Min: s[0], Max: s[len(s)-1],
		HighPct: p, High: quantile(s, p),
	}
}

// pct is the nearest-rank q-quantile of an unsorted sample.
func pct(sample []float64, q float64) float64 {
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	return quantile(s, q)
}

// median is the middle value of a sample, and the mean of the two
// middle values of a sample of even size: with four passes, or four
// kinds of operation, the nearest rank alone would report the second
// fastest and carry all of its noise.
func median(sample []float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}
