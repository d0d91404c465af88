package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"amtlci/internal/expd"
)

func TestCheckFlags(t *testing.T) {
	const tile = `{"kind":"tile","scale":0.01,"nodes":2,"runs":1}`
	const onePoint = `{"kind":"tile","n":9600,"nodes":4,"tiles":[1200],"backends":["lci"]}`
	const list = `[{"kind":"pingpong","runs":2,"discard":1},` + tile + `]`
	for _, c := range []struct {
		name string
		spec string // -spec's value; "" leaves it unset
		also string // more flags given on the command line, space-separated
		ok   bool
	}{
		{"defaults", "", "", true},
		{"defaults with output flags", "", "md j csv cache", true},
		{"tile spec", tile, "", true},
		{"nodes spec with output flags", `{"kind":"nodes","n":9600,"node_counts":[1,2]}`, "csv", true},
		{"pingpong spec", `{"kind":"pingpong","runs":2,"discard":1}`, "", true},
		{"overlap spec", `{"kind":"overlap"}`, "md", true},
		{"spec malformed", `{"kind":"tile"`, "", false},
		{"spec unknown field", `{"kind":"tile","tile":[2400]}`, "", false},
		{"spec unknown kind", `{"kind":"both"}`, "", false},
		{"spec chaos kind", `{"kind":"chaos"}`, "", true},
		{"chaos spec one backend", `{"kind":"chaos","backends":["lci"]}`, "", true},
		{"crash spec with output flags", `{"kind":"chaos","crashes":["1@40%"]}`, "j csv cache", true},
		{"chaos spec with -md", `{"kind":"chaos","storm":3}`, "md", true},
		{"spec one backend", `{"kind":"tile","backends":["lci"]}`, "", false},
		{"spec with -list-config", tile, "list-config", false},
		{"list", list, "md j csv cache", true},
		{"list with a bad second spec", `[{"kind":"overlap"},{"kind":"tile","scale":2}]`, "", false},
		{"list with a one-backend tile spec", `[{"kind":"tile","backends":["mpi"]}]`, "", false},
		{"list with a chaos spec", `[{"kind":"chaos"}]`, "", true},
		{"empty list", `[]`, "", false},
		{"list with trailing data", list + ` []`, "", false},
		{"trace one-point tile spec", onePoint, "trace", true},
		{"trace without spec", "", "trace", false},
		{"trace list", "[" + onePoint + "]", "trace", false},
		{"trace multi-point tile spec", tile, "trace", false},
		{"trace mt tile spec", `{"kind":"tile","n":9600,"nodes":4,"tiles":[1200],"backends":["lci"],"mt":true}`, "trace", false},
		{"trace nodes spec", `{"kind":"nodes","n":9600,"node_counts":[4],"tiles":[1200]}`, "trace", false},
		{"trace chaos spec", `{"kind":"chaos","backends":["lci"],"workloads":["cholesky"],"rates":[2]}`, "trace", false},
		{"trace with -md", onePoint, "trace md", false},
		{"trace with -j", onePoint, "trace j", false},
		{"trace with -csv", onePoint, "trace csv", false},
		{"trace with -cache", onePoint, "trace cache", false},
		{"list-config alone", "", "list-config", true},
		{"list-config with -md", "", "list-config md", false},
		{"list-config with -j", "", "list-config j", false},
		{"list-config with -csv", "", "list-config csv", false},
		{"list-config with -cache", "", "list-config cache", false},
		{"list-config with -trace", "", "list-config trace", false},
	} {
		set := map[string]bool{}
		for _, f := range strings.Fields(c.also) {
			set[f] = true
		}
		if c.spec != "" {
			set["spec"] = true
		}
		_, err := checkFlags(c.spec, set)
		if (err == nil) != c.ok {
			t.Errorf("%s: checkFlags = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestSpecLists: the committed lists decode as the whole evaluation, in the
// order of Section 6, with the paper's protocols (paper.json, the default)
// and the cheap ones (quick.json).
func TestSpecLists(t *testing.T) {
	quick, err := os.ReadFile("quick.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name         string
		spec         string // "" runs the default, paper.json
		micro, hicma [2]int // runs, discard
	}{
		{"paper.json", "", [2]int{18, 3}, [2]int{5, 0}},
		{"quick.json", string(quick), [2]int{2, 1}, [2]int{1, 0}},
	} {
		set := map[string]bool{"spec": c.spec != ""}
		specs, err := checkFlags(c.spec, set)
		if err != nil || len(specs) != 4 {
			t.Fatalf("%s: %d specs, err %v; want 4", c.name, len(specs), err)
		}
		for i, kind := range []string{expd.KindPingPong, expd.KindOverlap, expd.KindTile, expd.KindNodes} {
			s := specs[i]
			want := c.hicma
			if i < 2 {
				want = c.micro
			}
			if s.Kind != kind || [2]int{s.Runs, s.Discard} != want {
				t.Errorf("%s: spec %d is %s at %d/%d, want %s at %d/%d", c.name, i, s.Kind, s.Runs, s.Discard, kind, want[0], want[1])
			}
		}
		if tile := specs[2]; tile.N != 360000 || tile.Nodes != 16 || !tile.MT {
			t.Errorf("%s: tile spec N=%d nodes=%d mt=%t, want 360000, 16, true", c.name, tile.N, tile.Nodes, tile.MT)
		}
		if nodes := specs[3]; nodes.N != 360000 {
			t.Errorf("%s: nodes spec N=%d, want 360000", c.name, nodes.N)
		}
	}
}

// TestCSVNames: the first file of a name keeps NAME.csv and the k-th gets
// NAME-k.csv, for figure tables and registry files alike, so two specs of
// one kind in a list write distinct files.
func TestCSVNames(t *testing.T) {
	csv := &csvFiles{dir: "out", seen: map[string]int{}}
	for _, c := range []struct{ name, want string }{
		{"chaos-crash-summary", "chaos-crash-summary.csv"},
		{"fig4a", "fig4a.csv"},
		{"chaos-crash-summary", "chaos-crash-summary-2.csv"},
		{"chaos-crash-summary", "chaos-crash-summary-3.csv"},
		{"fig4a", "fig4a-2.csv"},
	} {
		if got := csv.reserve(c.name); got != filepath.Join("out", c.want) {
			t.Errorf("reserve(%q) = %q, want %q", c.name, got, filepath.Join("out", c.want))
		}
	}

	tile, err := expd.DecodeSpec([]byte(`{"kind":"tile","n":9600,"nodes":4,"tiles":[1200],"backends":["lci","mpi"]}`))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for range 2 {
		for _, p := range tile.Points() {
			_, paths := registrySink(tile, p, csv)
			got = append(got, paths...)
		}
	}
	want := []string{"experiments-metrics-lci.csv", "experiments-metrics-mpi.csv", "experiments-metrics-lci-2.csv", "experiments-metrics-mpi-2.csv"}
	for i := range want {
		want[i] = filepath.Join("out", want[i])
	}
	if !slices.Equal(got, want) {
		t.Errorf("registry files of two equal specs = %q, want %q", got, want)
	}
}
