package main

import (
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		name         string
		crash        string
		storm        int
		rate         float64
		quick, sever bool
		set          string // other flags given, space-separated
		ok           bool
	}{
		{"rate sweep", "", 0, -1, false, false, "", true},
		{"one rate", "", 0, 2, false, false, "", true},
		{"quick", "", 0, -1, true, false, "", true},
		{"sever", "", 0, -1, false, true, "", true},
		{"crash cascade", "1@40%,2@3ms", 0, -1, false, false, "", true},
		{"crash storm", "", 3, -1, false, false, "", true},
		{"crash malformed", "1@", 0, -1, false, false, "", false},
		{"crash rank twice", "1@40%,1@3ms", 0, -1, false, false, "", false},
		{"storm negative", "", -1, -1, false, false, "", false},
		{"crash with storm", "1@40%", 3, -1, false, false, "", false},
		{"malformed crash with storm", "bogus", 3, -1, false, false, "", false},
		{"quick with rate", "", 0, 1, true, false, "", false},
		{"sever with crash", "1@40%", 0, -1, false, true, "", false},
		{"sever with storm", "", 3, -1, false, true, "", false},
		{"sever with rate", "", 0, 1, false, true, "", false},
		{"crash with quick", "1@40%", 0, -1, true, false, "", false},
		{"storm with rate", "", 3, 2, false, false, "", false},
		{"rate sweep with j, steal and metrics", "", 0, 2, false, false, "j steal metrics", true},
		{"crash with steal and metrics", "1@40%", 0, -1, false, false, "steal metrics", true},
		{"sever with j", "", 0, -1, false, true, "j", false},
		{"crash with j", "1@40%", 0, -1, false, false, "j", false},
		{"storm with j", "", 3, -1, false, false, "j", false},
		{"sever with steal", "", 0, -1, false, true, "steal", false},
		{"sever with metrics", "", 0, -1, false, true, "metrics", false},
	} {
		set := map[string]bool{}
		for _, f := range strings.Fields(c.set) {
			set[f] = true
		}
		_, err := checkFlags(c.crash, c.storm, c.rate, c.quick, c.sever, set)
		if (err == nil) != c.ok {
			t.Errorf("%s: checkFlags = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
