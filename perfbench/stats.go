package main

import (
	"math"
	"sort"
)

// summary is a sample's median and quartiles, with its size.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// summarize returns the median and quartiles of xs (linear interpolation
// between order statistics, as in Python's statistics.quantiles with
// method="inclusive"; with one sample all three are that sample).
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{N: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

// quantile returns the q-quantile of the sorted sample s.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// percentile returns the p-th percentile (0 < p < 100) of an unsorted
// sample, sorting it in place.
func percentile(xs []float64, p float64) float64 {
	sort.Float64s(xs)
	return quantile(xs, p/100)
}

func median(xs []float64) float64 { return summarize(xs).Median }
