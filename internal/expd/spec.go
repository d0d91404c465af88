// Package expd runs experiments: spec → points → cache → table.
//
// An experiment Spec is one canonical schema for every paper figure, chaos
// rate sweep and crash-recovery proof in the repository, and Spec → Points
// → EvalPoints is the only code that runs them: cmd/experiments takes a
// spec or a list of specs as JSON (-spec; its paper.json list is the whole
// evaluation) and renders the results (Figures). A spec is validated and
// canonicalized, decomposed into self-contained sweep Points, and the
// points are scheduled on a bounded worker pool (bench.SweepCtx).
// Every point is content-addressed by a stable hash of its canonical
// encoding: because the simulation is deterministic, a cached point result
// is *exactly* the result a re-simulation would produce, so repeated or
// overlapping sweeps are served from the on-disk cache (cmd/experiments
// -cache) instead of re-simulated — a 256-point sweep that shares 200
// points with a prior run only simulates the 56 new ones. Figures renders
// the completed points of every spec kind as its tables.
package expd

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"amtlci/internal/bench"
	"amtlci/internal/chaos"
	"amtlci/internal/core/stack"
	"amtlci/internal/stats"
)

// Spec kinds: which sweep family a spec describes.
const (
	// KindTile is the Figure 4 sweep: HiCMA time-to-solution and latency
	// over tile sizes at a fixed node count.
	KindTile = "tile"
	// KindNodes is the Figure 5 / Table 2 sweep: strong scaling over node
	// counts, sweeping tiles per node count for the best-tile series.
	KindNodes = "nodes"
	// KindChaos is the chaos sweep: workload x fault rate with the
	// reliability layer interposed, verified numerics — or, with crashes or
	// storm, the crash-recovery proof per workload.
	KindChaos = "chaos"
	// KindPingPong is the Figure 2a/2b sweep: ping-pong bandwidth over the
	// bench.PingPongSizes granularities, one stream synced (2a) and two
	// streams synced and not (2b).
	KindPingPong = "pingpong"
	// KindOverlap is the Figure 3 sweep: computation/communication overlap
	// over the bench.OverlapSizes granularities.
	KindOverlap = "overlap"
)

// pingpongSeries are the (streams, sync) configurations of a pingpong
// spec, in Points order: Fig 2a's one synced stream, then Fig 2b's two
// streams synced and not.
var pingpongSeries = []struct {
	streams int
	sync    bool
}{{1, true}, {2, true}, {2, false}}

// Spec is one experiment request. Every field is optional except Kind;
// omitted fields take the documented defaults during canonicalization, so a
// spec with defaults spelled out hashes identically to one that omits them.
type Spec struct {
	Kind string `json:"kind"`

	// HiCMA sweeps (tile, nodes); pingpong and overlap take only Runs,
	// Discard, Backends (both) and Seed. Scale shrinks the paper's N=360,000
	// problem (bench.ScaledProblem); N sets the dimension directly and is
	// mutually exclusive with Scale. Tiles defaults to the paper tile sizes
	// that divide N.
	Scale      float64 `json:"scale,omitempty"`
	N          int     `json:"n,omitempty"`
	Nodes      int     `json:"nodes,omitempty"`       // tile kind: node count (default 16)
	NodeCounts []int   `json:"node_counts,omitempty"` // nodes kind: swept counts (default paper)
	Tiles      []int   `json:"tiles,omitempty"`
	MT         bool    `json:"mt,omitempty"`    // tile kind: also measure multithreaded ACTIVATEs
	Steal      bool    `json:"steal,omitempty"` // inter-rank work stealing (tile, nodes, chaos)
	Runs       int     `json:"runs,omitempty"`  // measurement protocol (default 1; pingpong, overlap 18 discard 3)
	Discard    int     `json:"discard,omitempty"`

	// Backends defaults to both, canonical order LCI then MPI. Accepted
	// spellings follow stack.ParseBackend.
	Backends []string `json:"backends,omitempty"`
	// Seed, when nonzero, overrides each point's default seed.
	Seed uint64 `json:"seed,omitempty"`

	// Chaos sweeps.
	Workloads []string  `json:"workloads,omitempty"` // default: cholesky, hicma
	Rates     []float64 `json:"rates,omitempty"`     // fault rates in percent (default 0.5, 1, 2)
	// Crashes and Storm replace the rate sweep with the crash-recovery
	// proof. Crashes is a cascade of "rank@time" entries, the time absolute
	// ("3ms") or a percentage of the fault-free makespan ("40%"); Storm is a
	// cascade of that many crashes on distinct ranks drawn from Seed.
	Crashes []string `json:"crashes,omitempty"`
	Storm   int      `json:"storm,omitempty"`
}

// DecodeSpec parses and canonicalizes a spec from JSON. Unknown fields are
// rejected — a typo must not silently select a default.
func DecodeSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("expd: bad spec: %w", err)
	}
	// Trailing garbage after the object is an error, not ignored input.
	if dec.More() {
		return Spec{}, fmt.Errorf("expd: bad spec: trailing data after JSON object")
	}
	return s.Canonical()
}

// DecodeSpecList parses and canonicalizes a JSON array of specs. Every
// element is validated before the list is returned, so a bad element is
// refused before any point of the list runs.
func DecodeSpecList(data []byte) ([]Spec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	var raw []json.RawMessage
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("expd: bad spec list: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("expd: bad spec list: trailing data after JSON array")
	}
	if len(raw) == 0 {
		return nil, fmt.Errorf("expd: empty spec list")
	}
	specs := make([]Spec, len(raw))
	for i, r := range raw {
		s, err := DecodeSpec(r)
		if err != nil {
			return nil, fmt.Errorf("spec %d: %w", i, err)
		}
		specs[i] = s
	}
	return specs, nil
}

func parseWorkload(s string) (string, chaos.Workload, error) {
	switch strings.ToLower(s) {
	case "cholesky":
		return "cholesky", chaos.Cholesky, nil
	case "hicma":
		return "hicma", chaos.HiCMA, nil
	}
	return "", 0, fmt.Errorf("expd: unknown workload %q", s)
}

func sortedUniqInts(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	j := 0
	for i, v := range out {
		if i == 0 || v != out[j-1] {
			out[j] = v
			j++
		}
	}
	return out[:j]
}

func sortedUniqFloats(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	j := 0
	for i, v := range out {
		if i == 0 || v != out[j-1] {
			out[j] = v
			j++
		}
	}
	return out[:j]
}

// Canonical validates s and returns its canonical form: defaults filled in,
// list fields sorted and deduplicated, backend/workload spellings
// normalized, Scale resolved into an explicit N. Two specs that describe
// the same experiment canonicalize to the same value and therefore the same
// Hash. The zero fields of other kinds stay zero, so the canonical JSON
// encoding is stable.
func (s Spec) Canonical() (Spec, error) {
	c := Spec{Kind: s.Kind, Seed: s.Seed}

	// Backends: normalize spellings, dedup, canonical order LCI then MPI.
	in := s.Backends
	if len(in) == 0 {
		in = []string{"lci", "mpi"}
	}
	var wantLCI, wantMPI bool
	for _, bs := range in {
		b, err := stack.ParseBackend(bs)
		if err != nil {
			return Spec{}, fmt.Errorf("expd: %v", err)
		}
		if b == stack.LCI {
			wantLCI = true
		} else {
			wantMPI = true
		}
	}
	if wantLCI {
		c.Backends = append(c.Backends, "lci")
	}
	if wantMPI {
		c.Backends = append(c.Backends, "mpi")
	}

	reject := func(cond bool, field string) error {
		if cond {
			return fmt.Errorf("expd: field %q is not valid for kind %q", field, s.Kind)
		}
		return nil
	}
	// methodology canonicalizes Runs and Discard: an omitted Runs takes
	// the kind's default protocol, and Discard its default when it is
	// omitted too.
	methodology := func(runs, discard int) error {
		c.Runs, c.Discard = s.Runs, s.Discard
		if c.Runs == 0 {
			c.Runs = runs
			if c.Discard == 0 {
				c.Discard = discard
			}
		}
		if c.Runs < 0 || c.Discard < 0 || c.Runs <= c.Discard {
			return fmt.Errorf("expd: methodology retains no runs (%d runs, %d discarded)", c.Runs, c.Discard)
		}
		return nil
	}

	switch s.Kind {
	case KindTile, KindNodes:
		for _, e := range []error{
			reject(len(s.Workloads) != 0, "workloads"), reject(len(s.Rates) != 0, "rates"),
			reject(len(s.Crashes) != 0, "crashes"), reject(s.Storm != 0, "storm"),
		} {
			if e != nil {
				return Spec{}, e
			}
		}
		if s.Kind == KindNodes {
			if err := reject(s.Nodes != 0, "nodes"); err != nil {
				return Spec{}, err
			}
			if err := reject(s.MT, "mt"); err != nil {
				return Spec{}, err
			}
			c.NodeCounts = sortedUniqInts(s.NodeCounts)
			if len(c.NodeCounts) == 0 {
				c.NodeCounts = append([]int(nil), bench.PaperNodeCounts...)
			}
			for _, nd := range c.NodeCounts {
				if nd < 1 {
					return Spec{}, fmt.Errorf("expd: node count %d < 1", nd)
				}
			}
			if len(c.Backends) != 2 {
				return Spec{}, fmt.Errorf("expd: the nodes sweep needs both backends (best-tile series compare LCI and MPI)")
			}
		} else {
			if err := reject(len(s.NodeCounts) != 0, "node_counts"); err != nil {
				return Spec{}, err
			}
			c.Nodes = s.Nodes
			if c.Nodes == 0 {
				c.Nodes = 16
			}
			if c.Nodes < 1 {
				return Spec{}, fmt.Errorf("expd: nodes %d < 1", c.Nodes)
			}
			c.MT = s.MT
		}
		// Problem size: explicit N wins, otherwise Scale (default 1).
		switch {
		case s.N != 0 && s.Scale != 0:
			return Spec{}, fmt.Errorf("expd: n and scale are mutually exclusive")
		case s.N != 0:
			if s.N < 1 {
				return Spec{}, fmt.Errorf("expd: n %d < 1", s.N)
			}
			c.N = s.N
		default:
			scale := s.Scale
			if scale == 0 {
				scale = 1
			}
			if scale < 0 || scale > 1 {
				return Spec{}, fmt.Errorf("expd: scale %g outside (0, 1]", scale)
			}
			c.N, _ = bench.ScaledProblem(scale, bench.PaperTileSizes)
		}
		if len(s.Tiles) != 0 {
			c.Tiles = sortedUniqInts(s.Tiles)
			for _, nb := range c.Tiles {
				if nb < 1 || c.N%nb != 0 {
					return Spec{}, fmt.Errorf("expd: tile %d does not divide N=%d", nb, c.N)
				}
			}
		} else {
			for _, nb := range bench.PaperTileSizes {
				if c.N%nb == 0 {
					c.Tiles = append(c.Tiles, nb)
				}
			}
			if len(c.Tiles) == 0 {
				return Spec{}, fmt.Errorf("expd: no paper tile size divides N=%d; set tiles explicitly", c.N)
			}
		}
		c.Steal = s.Steal
		if err := methodology(1, 0); err != nil {
			return Spec{}, err
		}

	case KindPingPong, KindOverlap:
		for _, e := range []error{
			reject(s.Scale != 0, "scale"), reject(s.N != 0, "n"),
			reject(s.Nodes != 0, "nodes"), reject(len(s.NodeCounts) != 0, "node_counts"),
			reject(len(s.Tiles) != 0, "tiles"), reject(s.MT, "mt"), reject(s.Steal, "steal"),
			reject(len(s.Workloads) != 0, "workloads"), reject(len(s.Rates) != 0, "rates"),
			reject(len(s.Crashes) != 0, "crashes"), reject(s.Storm != 0, "storm"),
		} {
			if e != nil {
				return Spec{}, e
			}
		}
		if len(c.Backends) != 2 {
			return Spec{}, fmt.Errorf("expd: the %s sweep needs both backends (its figure compares LCI and MPI)", s.Kind)
		}
		ms := stats.Microbenchmark
		if err := methodology(ms.Runs, ms.Discard); err != nil {
			return Spec{}, err
		}

	case KindChaos:
		for _, e := range []error{
			reject(s.Scale != 0, "scale"), reject(s.N != 0, "n"),
			reject(s.Nodes != 0, "nodes"), reject(len(s.NodeCounts) != 0, "node_counts"),
			reject(len(s.Tiles) != 0, "tiles"), reject(s.MT, "mt"),
			reject(s.Runs != 0, "runs"), reject(s.Discard != 0, "discard"),
		} {
			if e != nil {
				return Spec{}, e
			}
		}
		if len(s.Workloads) == 0 {
			c.Workloads = []string{"cholesky", "hicma"}
		} else {
			seen := map[string]bool{}
			for _, canon := range []string{"cholesky", "hicma"} {
				for _, in := range s.Workloads {
					name, _, err := parseWorkload(in)
					if err != nil {
						return Spec{}, err
					}
					if name == canon && !seen[name] {
						seen[name] = true
						c.Workloads = append(c.Workloads, name)
					}
				}
			}
		}
		c.Steal = s.Steal
		switch {
		case s.Storm < 0:
			return Spec{}, fmt.Errorf("expd: storm %d is negative", s.Storm)
		case len(s.Crashes) != 0 && s.Storm != 0:
			return Spec{}, fmt.Errorf("expd: crashes and storm are mutually exclusive")
		case (len(s.Crashes) != 0 || s.Storm != 0) && len(s.Rates) != 0:
			return Spec{}, fmt.Errorf("expd: rates do not combine with crashes or storm")
		}
		crashes, err := parseCrashes(s.Crashes)
		if err != nil {
			return Spec{}, err
		}
		for _, cr := range crashes {
			c.Crashes = append(c.Crashes, cr.String())
		}
		c.Storm = s.Storm
		if c.crashing() {
			break // the crash proof sweeps no fault rates
		}
		c.Rates = sortedUniqFloats(s.Rates)
		if len(c.Rates) == 0 {
			c.Rates = []float64{0.5, 1, 2}
		}
		for _, r := range c.Rates {
			if r <= 0 || r >= 100 {
				return Spec{}, fmt.Errorf("expd: fault rate %g%% outside (0, 100)", r)
			}
		}

	default:
		return Spec{}, fmt.Errorf("expd: unknown spec kind %q (want %q, %q, %q, %q or %q)",
			s.Kind, KindTile, KindNodes, KindPingPong, KindOverlap, KindChaos)
	}
	return c, nil
}

// crashing reports whether chaos spec s is the crash-recovery proof rather
// than a rate sweep.
func (s Spec) crashing() bool { return len(s.Crashes) != 0 || s.Storm != 0 }

// Points decomposes a canonical spec into its constituent sweep points, in
// the deterministic order the result CSV reports them. Point hashes are the
// cache keys: a HiCMA point is the same point — and the same cache entry —
// whether a tile sweep or a strong-scaling sweep asked for it.
func (s Spec) Points() []Point {
	var pts []Point
	switch s.Kind {
	case KindTile:
		mts := []bool{false}
		if s.MT {
			mts = []bool{false, true}
		}
		for _, b := range s.Backends {
			for _, mt := range mts {
				for _, nb := range s.Tiles {
					pts = append(pts, Point{
						Kind: PointHiCMA, Backend: b, N: s.N, NB: nb, Nodes: s.Nodes,
						MT: mt, Steal: s.Steal,
						Runs: s.Runs, Discard: s.Discard, Seed: s.Seed,
					})
				}
			}
		}
	case KindNodes:
		// Node count outer, backend next, tile inner — the layout
		// StrongScalingFrom reassembles into the Figure 5 series.
		for _, nd := range s.NodeCounts {
			for _, b := range s.Backends {
				for _, nb := range s.Tiles {
					pts = append(pts, Point{
						Kind: PointHiCMA, Backend: b, N: s.N, NB: nb, Nodes: nd,
						Steal: s.Steal, Runs: s.Runs, Discard: s.Discard, Seed: s.Seed,
					})
				}
			}
		}
	case KindPingPong:
		for _, ser := range pingpongSeries {
			for _, b := range s.Backends {
				for _, size := range bench.PingPongSizes() {
					pts = append(pts, Point{
						Kind: PointPingPong, Backend: b, Size: size, Streams: ser.streams, Sync: ser.sync,
						Runs: s.Runs, Discard: s.Discard, Seed: s.Seed,
					})
				}
			}
		}
	case KindOverlap:
		for _, b := range s.Backends {
			for _, size := range bench.OverlapSizes() {
				pts = append(pts, Point{
					Kind: PointOverlap, Backend: b, Size: size,
					Runs: s.Runs, Discard: s.Discard, Seed: s.Seed,
				})
			}
		}
	case KindChaos:
		for _, b := range s.Backends {
			for _, w := range s.Workloads {
				pts = append(pts, Point{
					Kind: PointChaos, Backend: b, Workload: w, Steal: s.Steal,
					Rates:   append([]float64(nil), s.Rates...),
					Crashes: append([]string(nil), s.Crashes...), Storm: s.Storm,
					Seed: s.Seed,
				})
			}
		}
	}
	return pts
}
