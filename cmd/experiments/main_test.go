package main

import (
	"math"
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	const tile = `{"kind":"tile","scale":0.01,"nodes":2,"runs":1}`
	const onePoint = `{"kind":"tile","n":9600,"nodes":4,"tiles":[1200],"backends":["lci"]}`
	for _, c := range []struct {
		name                 string
		scale                float64
		microRuns, hicmaRuns int
		spec                 string // -spec's value; "" leaves it unset
		also                 string // more flags given on the command line, space-separated
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
		{"spec chaos kind", 1, 18, 5, `{"kind":"chaos"}`, "", true},
		{"chaos spec one backend", 1, 18, 5, `{"kind":"chaos","backends":["lci"]}`, "", true},
		{"crash spec with output flags", 1, 18, 5, `{"kind":"chaos","crashes":["1@40%"]}`, "j csv cache", true},
		{"chaos spec with -md", 1, 18, 5, `{"kind":"chaos","storm":3}`, "md", false},
		{"spec one backend", 1, 18, 5, `{"kind":"tile","backends":["lci"]}`, "", false},
		{"spec with -scale", 1, 18, 5, tile, "scale", false},
		{"spec with -quick", 1, 18, 5, tile, "quick", false},
		{"spec with -micro-runs", 1, 18, 5, tile, "micro-runs", false},
		{"spec with -hicma-runs", 1, 18, 5, tile, "hicma-runs", false},
		{"spec with -metrics", 1, 18, 5, tile, "metrics", false},
		{"spec with -list-config", 1, 18, 5, tile, "list-config", false},
		{"trace one-point tile spec", 1, 18, 5, onePoint, "trace", true},
		{"trace without spec", 1, 18, 5, "", "trace", false},
		{"trace multi-point tile spec", 1, 18, 5, tile, "trace", false},
		{"trace mt tile spec", 1, 18, 5, `{"kind":"tile","n":9600,"nodes":4,"tiles":[1200],"backends":["lci"],"mt":true}`, "trace", false},
		{"trace nodes spec", 1, 18, 5, `{"kind":"nodes","n":9600,"node_counts":[4],"tiles":[1200]}`, "trace", false},
		{"trace chaos spec", 1, 18, 5, `{"kind":"chaos","backends":["lci"],"workloads":["cholesky"],"rates":[2]}`, "trace", false},
		{"trace with -md", 1, 18, 5, onePoint, "trace md", false},
		{"trace with -j", 1, 18, 5, onePoint, "trace j", false},
		{"trace with -csv", 1, 18, 5, onePoint, "trace csv", false},
		{"trace with -cache", 1, 18, 5, onePoint, "trace cache", false},
		{"list-config alone", 1, 18, 5, "", "list-config", true},
		{"metrics alone", 1, 18, 5, "", "metrics", true},
		{"list-config with -metrics", 1, 18, 5, "", "list-config metrics", false},
		{"list-config with -scale", 1, 18, 5, "", "list-config scale", false},
		{"list-config with -quick", 1, 18, 5, "", "list-config quick", false},
		{"list-config with -md", 1, 18, 5, "", "list-config md", false},
		{"list-config with -micro-runs", 1, 18, 5, "", "list-config micro-runs", false},
		{"list-config with -hicma-runs", 1, 18, 5, "", "list-config hicma-runs", false},
		{"list-config with -j", 1, 18, 5, "", "list-config j", false},
		{"list-config with -csv", 1, 18, 5, "", "list-config csv", false},
		{"list-config with -cache", 1, 18, 5, "", "list-config cache", false},
		{"metrics with -scale", 1, 18, 5, "", "metrics scale", false},
		{"metrics with -quick", 1, 18, 5, "", "metrics quick", false},
		{"metrics with -md", 1, 18, 5, "", "metrics md", false},
		{"metrics with -micro-runs", 1, 18, 5, "", "metrics micro-runs", false},
		{"metrics with -hicma-runs", 1, 18, 5, "", "metrics hicma-runs", false},
		{"metrics with -j", 1, 18, 5, "", "metrics j", false},
		{"metrics with -csv", 1, 18, 5, "", "metrics csv", false},
		{"metrics with -cache", 1, 18, 5, "", "metrics cache", false},
	} {
		set := map[string]bool{}
		for _, f := range strings.Fields(c.also) {
			set[f] = true
		}
		if c.spec != "" {
			set["spec"] = true
		}
		_, err := checkFlags(c.scale, c.microRuns, c.hicmaRuns, c.spec, set)
		if (err == nil) != c.ok {
			t.Errorf("%s: checkFlags = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
