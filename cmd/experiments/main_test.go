package main

import (
	"math"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	const tile = `{"kind":"tile","scale":0.01,"nodes":2,"runs":1}`
	for _, c := range []struct {
		name                 string
		scale                float64
		microRuns, hicmaRuns int
		spec                 string // -spec's value; "" leaves it unset
		also                 string // one more flag given on the command line
		ok                   bool
	}{
		{"defaults", 1, 18, 5, "", "", true},
		{"quick point", 0.25, 4, 1, "", "quick", true},
		{"scale above 1", 2, 18, 5, "", "", false},
		{"scale zero", 0, 18, 5, "", "", false},
		{"scale negative", -0.5, 18, 5, "", "", false},
		{"scale NaN", math.NaN(), 18, 5, "", "", false},
		{"micro runs all discarded", 1, 3, 5, "", "", false},
		{"hicma runs zero", 1, 18, 0, "", "", false},
		{"tile spec", 1, 18, 5, tile, "", true},
		{"nodes spec with output flags", 1, 18, 5, `{"kind":"nodes","n":9600,"node_counts":[1,2]}`, "csv", true},
		{"spec malformed", 1, 18, 5, `{"kind":"tile"`, "", false},
		{"spec unknown field", 1, 18, 5, `{"kind":"tile","tile":[2400]}`, "", false},
		{"spec unknown kind", 1, 18, 5, `{"kind":"both"}`, "", false},
		{"spec chaos kind", 1, 18, 5, `{"kind":"chaos"}`, "", false},
		{"spec one backend", 1, 18, 5, `{"kind":"tile","backends":["lci"]}`, "", false},
		{"spec with -scale", 1, 18, 5, tile, "scale", false},
		{"spec with -quick", 1, 18, 5, tile, "quick", false},
		{"spec with -micro-runs", 1, 18, 5, tile, "micro-runs", false},
		{"spec with -hicma-runs", 1, 18, 5, tile, "hicma-runs", false},
		{"spec with -metrics", 1, 18, 5, tile, "metrics", false},
		{"spec with -list-config", 1, 18, 5, tile, "list-config", false},
	} {
		set := map[string]bool{c.also: c.also != ""}
		if c.spec != "" {
			set["spec"] = true
		}
		_, err := checkFlags(c.scale, c.microRuns, c.hicmaRuns, c.spec, set)
		if (err == nil) != c.ok {
			t.Errorf("%s: checkFlags = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
