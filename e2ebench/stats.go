package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule: the smallest sample at or above p percent of the
// samples. It returns 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// tailPercentiles are the candidates tailPercentile chooses from, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest of tailPercentiles that has at least
// ten of n samples beyond it, so a reported tail rests on more than a
// handful of slow operations. With fewer than 20 samples it returns 50.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 50
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// checkName reports whether name is a valid metric name: 1 to 64
// characters from [A-Za-z0-9_.-], starting with a letter or a digit.
func checkName(name string) error {
	if name == "" || len(name) > 64 {
		return fmt.Errorf("metric name %q: want 1 to 64 characters", name)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		alnum := 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
		if i == 0 && !alnum {
			return fmt.Errorf("metric name %q: must start with a letter or a digit", name)
		}
		if !alnum && c != '_' && c != '.' && c != '-' {
			return fmt.Errorf("metric name %q: character %q outside [A-Za-z0-9_.-]", name, c)
		}
	}
	return nil
}
