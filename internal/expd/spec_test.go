package expd

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestHashInvariance pins the content-address contract: every spelling of
// the same experiment canonicalizes to the same spec, hence to the same
// point addresses, and materially different experiments never collide. This
// is what lets overlapping sweeps share cache entries.
func TestHashInvariance(t *testing.T) {
	hash := func(t *testing.T, raw string) string {
		t.Helper()
		s, err := DecodeSpec([]byte(raw))
		if err != nil {
			t.Fatalf("DecodeSpec(%s): %v", raw, err)
		}
		return canonicalJSON(t, s)
	}

	t.Run("field reordering", func(t *testing.T) {
		a := hash(t, `{"kind":"tile","scale":0.01,"nodes":2,"runs":1}`)
		b := hash(t, `{"runs":1,"nodes":2,"kind":"tile","scale":0.01}`)
		if a != b {
			t.Errorf("reordered fields changed the spec: %s vs %s", a, b)
		}
	})

	t.Run("default omission", func(t *testing.T) {
		// {"kind":"tile"} with every default spelled out explicitly: the
		// paper problem, both backends, 16 nodes, one run, and the full
		// paper tile set (all of which divide N=360,000).
		a := hash(t, `{"kind":"tile"}`)
		b := hash(t, `{"kind":"tile","n":360000,"nodes":16,"runs":1,
			"backends":["lci","mpi"],
			"tiles":[1200,1500,1800,2400,3000,3600,4500,4800,6000]}`)
		if a != b {
			t.Errorf("spelled-out defaults changed the spec: %s vs %s", a, b)
		}
		// scale:1 resolves to the same explicit N.
		c := hash(t, `{"kind":"tile","scale":1}`)
		if a != c {
			t.Errorf("scale:1 differs from default: %s vs %s", a, c)
		}
	})

	t.Run("backend spelling and order", func(t *testing.T) {
		a := hash(t, `{"kind":"chaos"}`)
		b := hash(t, `{"kind":"chaos","backends":["MPI","LCI"]}`)
		if a != b {
			t.Errorf("backend order/case changed the spec: %s vs %s", a, b)
		}
	})

	t.Run("distinct specs differ", func(t *testing.T) {
		seen := map[string]string{}
		for _, raw := range []string{
			`{"kind":"tile"}`,
			`{"kind":"tile","nodes":8}`,
			`{"kind":"tile","runs":3}`,
			`{"kind":"tile","mt":true}`,
			`{"kind":"nodes"}`,
			`{"kind":"chaos"}`,
			`{"kind":"chaos","rates":[5]}`,
			`{"kind":"chaos","steal":true}`,
			`{"kind":"chaos","crashes":["1@40%"]}`,
			`{"kind":"chaos","storm":3}`,
			`{"kind":"pingpong"}`,
			`{"kind":"pingpong","runs":2,"discard":1}`,
			`{"kind":"pingpong","seed":7}`,
			`{"kind":"overlap"}`,
			`{"kind":"overlap","runs":2,"discard":1}`,
		} {
			h := hash(t, raw)
			if prev, dup := seen[h]; dup {
				t.Errorf("collision: %s and %s both canonicalize to %s", prev, raw, h)
			}
			seen[h] = raw
		}
	})

	t.Run("pinned address", func(t *testing.T) {
		// The first point of the default chaos sweep. If this changes, the
		// Point encoding changed, which invalidates every on-disk cache —
		// only update the constant for a deliberate format break. Chaos
		// points gained an omitempty steal field, and a point without
		// stealing keeps the address it had before.
		chaos, err := DecodeSpec([]byte(`{"kind":"chaos"}`))
		if err != nil {
			t.Fatal(err)
		}
		const wantPoint = "1c8641ec795a773de63f128037c8e2d3929b3fbdbc6444302c168f1149529190"
		if got := chaos.Points()[0].Hash(); got != wantPoint {
			t.Errorf("chaos point encoding drifted: hash %s, want %s", got, wantPoint)
		}
	})
}

func TestDecodeSpecRejects(t *testing.T) {
	for _, tc := range []struct{ raw, frag string }{
		{`{"kind":"tile","node_counts":[1,2]}`, "not valid"},
		{`{"kind":"nodes","nodes":4}`, "not valid"},
		{`{"kind":"tile","typo":1}`, "unknown field"},
		{`{"kind":"tile","shards":4}`, `unknown field "shards"`},
		{`{"kind":"tile","sync_clocks":true}`, `unknown field "sync_clocks"`},
		{`{"kind":"tile","scale":0.5,"n":7200}`, "mutually exclusive"},
		{`{"kind":"tile","tiles":[7]}`, "divide"},
		{`{"kind":"coll"}`, "kind"},
		{`{"kind":"chaos","rates":[150]}`, "rate"},
		{`{"kind":"warp"}`, "kind"},
		{`{"kind":"tile"} trailing`, "trailing"},
		{`{"kind":"chaos","crashes":["1@"]}`, "bad time"},
		{`{"kind":"chaos","crashes":["bogus"]}`, "rank@time"},
		{`{"kind":"chaos","crashes":["1@40%","1@3ms"]}`, "crashes twice"},
		{`{"kind":"chaos","crashes":["1@100%"]}`, "percentage"},
		{`{"kind":"chaos","crashes":["1@0%"]}`, "percentage"},
		{`{"kind":"chaos","crashes":["1@40%"],"storm":3}`, "mutually exclusive"},
		{`{"kind":"chaos","crashes":["1@40%"],"rates":[2]}`, "rates"},
		{`{"kind":"chaos","storm":3,"rates":[2]}`, "rates"},
		{`{"kind":"chaos","storm":-1}`, "negative"},
		{`{"kind":"tile","crashes":["1@40%"]}`, "not valid"},
		{`{"kind":"tile","scale":2}`, "outside"},
		{`{"kind":"nodes","scale":-0.5}`, "outside"},
		{`{"kind":"tile","runs":1,"discard":1}`, "retains no runs"},
		{`{"kind":"nodes","runs":-1}`, "retains no runs"},
		{`{"kind":"pingpong","runs":3,"discard":3}`, "retains no runs"},
		{`{"kind":"overlap","runs":2,"discard":-1}`, "retains no runs"},
		{`{"kind":"pingpong","backends":["lci"]}`, "both backends"},
		{`{"kind":"overlap","backends":["mpi"]}`, "both backends"},
		{`{"kind":"pingpong","scale":0.5}`, "not valid"},
		{`{"kind":"pingpong","tiles":[1200]}`, "not valid"},
		{`{"kind":"pingpong","mt":true}`, "not valid"},
		{`{"kind":"overlap","n":9600}`, "not valid"},
		{`{"kind":"overlap","nodes":2}`, "not valid"},
		{`{"kind":"overlap","steal":true}`, "not valid"},
		{`{"kind":"overlap","rates":[2]}`, "not valid"},
		{`{"kind":"pingpong","storm":3}`, "not valid"},
	} {
		_, err := DecodeSpec([]byte(tc.raw))
		if err == nil {
			t.Errorf("DecodeSpec(%s): expected error, got none", tc.raw)
			continue
		}
		if !strings.Contains(strings.ToLower(err.Error()), tc.frag) {
			t.Errorf("DecodeSpec(%s): error %q does not mention %q", tc.raw, err, tc.frag)
		}
	}
}

// TestDecodeSpecListRejects: a list is refused as a whole when any element
// is, and names the element.
func TestDecodeSpecListRejects(t *testing.T) {
	for _, tc := range []struct{ raw, frag string }{
		{`[{"kind":"overlap"},{"kind":"tile","scale":2}]`, "spec 1: expd: scale 2 outside"},
		{`[{"kind":"pingpong","typo":1}]`, "spec 0: expd: bad spec"},
		{`[]`, "empty"},
		{`[{"kind":"overlap"}] []`, "trailing"},
		{`{"kind":"overlap"}`, "bad spec list"},
	} {
		_, err := DecodeSpecList([]byte(tc.raw))
		if err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("DecodeSpecList(%s) = %v, want an error mentioning %q", tc.raw, err, tc.frag)
		}
	}
	specs, err := DecodeSpecList([]byte(`[{"kind":"pingpong"},{"kind":"overlap","runs":2,"discard":1}]`))
	if err != nil || len(specs) != 2 || specs[0].Runs != 18 || specs[0].Discard != 3 || specs[1].Runs != 2 {
		t.Errorf("DecodeSpecList = %+v, %v; want pingpong at 18/3 and overlap at 2/1", specs, err)
	}
}

func TestPointsShareAcrossKinds(t *testing.T) {
	// Per-point addressing: a tile sweep at 16 nodes and a nodes sweep
	// covering 16 nodes produce identical points for the shared
	// configurations, so their cache entries coincide.
	tile, err := DecodeSpec([]byte(`{"kind":"tile","nodes":16,"tiles":[1200]}`))
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := DecodeSpec([]byte(`{"kind":"nodes","node_counts":[16],"tiles":[1200]}`))
	if err != nil {
		t.Fatal(err)
	}
	th := map[string]bool{}
	for _, p := range tile.Points() {
		th[p.Hash()] = true
	}
	shared := 0
	for _, p := range nodes.Points() {
		if th[p.Hash()] {
			shared++
		}
	}
	if shared != 2 { // lci + mpi at (n=360000, nb=1200, nodes=16)
		t.Errorf("tile and nodes sweeps share %d point addresses, want 2", shared)
	}
}

// FuzzDecodeSpec exercises the spec and spec-list decoders with arbitrary
// input: they must never panic, and any spec they accept must be a fixed
// point of canonicalization (decoding the canonical form reproduces the
// same address — otherwise the cache would fragment).
func FuzzDecodeSpec(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"tile","scale":0.01,"nodes":2,"runs":1}`,
		`{"kind":"nodes","node_counts":[1,2],"tiles":[1200]}`,
		`{"kind":"chaos","workloads":["hicma"],"rates":[0.5,2]}`,
		`{"kind":"chaos","backends":["MPI"],"steal":true,"rates":[1,1]}`,
		`{"kind":"tile","mt":true,"sync_clocks":true,"seed":7}`,
		`{"kind":""}`,
		`[]`,
		`{"kind":"tile","tiles":[0]}`,
		`{"kind":"chaos","crashes":[" 2@3000us","1@40.0%"],"steal":true}`,
		`{"kind":"pingpong","runs":2,"discard":1}`,
		`{"kind":"overlap","backends":["MPI","lci"],"seed":5}`,
		`[{"kind":"pingpong"},{"kind":"overlap"},{"kind":"tile","scale":1,"mt":true},{"kind":"nodes","runs":1}]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		specs, err := DecodeSpecList(data)
		if err != nil {
			s, err := DecodeSpec(data)
			if err != nil {
				return
			}
			specs = []Spec{s}
		}
		for _, s := range specs {
			enc, merr := json.Marshal(s)
			if merr != nil {
				t.Fatalf("canonical spec does not marshal: %v", merr)
			}
			again, err := DecodeSpec(enc)
			if err != nil {
				t.Fatalf("canonical spec %s does not re-decode: %v", enc, err)
			}
			if got := canonicalJSON(t, again); got != string(enc) {
				t.Fatalf("canonicalization is not idempotent: %s -> %s", enc, got)
			}
		}
	})
}

// canonicalJSON returns the encoding of a canonical spec: two spellings of
// one experiment are the same spec exactly when their encodings are equal.
func canonicalJSON(t testing.TB, s Spec) string {
	t.Helper()
	enc, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("canonical spec does not marshal: %v", err)
	}
	return string(enc)
}
