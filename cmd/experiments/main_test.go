package main

import (
	"math"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		name                 string
		scale, fig5Scale     float64
		microRuns, hicmaRuns int
		ok                   bool
	}{
		{"defaults", 1, 0, 18, 5, true},
		{"quick point", 0.25, 0.1, 4, 1, true},
		{"scale above 1", 2, 0, 18, 5, false},
		{"scale zero", 0, 0, 18, 5, false},
		{"scale negative", -0.5, 0, 18, 5, false},
		{"scale NaN", math.NaN(), 0, 18, 5, false},
		{"fig5 scale above 1", 1, 1.5, 18, 5, false},
		{"fig5 scale negative", 1, -1, 18, 5, false},
		{"micro runs all discarded", 1, 0, 3, 5, false},
		{"hicma runs zero", 1, 0, 18, 0, false},
	} {
		err := checkFlags(c.scale, c.fig5Scale, c.microRuns, c.hicmaRuns)
		if (err == nil) != c.ok {
			t.Errorf("%s: checkFlags = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
