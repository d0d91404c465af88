package term

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// recHost is a Recovery's host in miniature: liveness, the votes in flight,
// the generations armed and the aborted rounds.
type recHost struct {
	dead   []bool
	queue  []vote // sent, not yet delivered
	armed  []int
	aborts int
}

type vote struct{ from, to, d int }

func newRecHost(n, budget int) (*recHost, *Recovery) {
	h := &recHost{dead: make([]bool, n)}
	rc := NewRecovery(n, budget,
		func(r int) bool { return h.dead[r] },
		func(from, to int, m Msg) { h.queue = append(h.queue, vote{from, to, int(m.Rank)}) },
		func(gen int) { h.armed = append(h.armed, gen) },
		func() { h.aborts++ })
	return h, rc
}

// deliver hands vote i to its collector, or drops it when the collector
// died in flight (the NIC drops traffic to a crashed rank).
func (h *recHost) deliver(rc *Recovery, i int) {
	v := h.queue[i]
	h.queue = slices.Delete(h.queue, i, i+1)
	if !h.dead[v.to] {
		rc.Vote(v.d, v.from)
	}
}

// runScript drives a Recovery line by line:
//
//	crash R          rank R dies
//	spend R ok|no    Spend(R) answers ok or no
//	verdict O D      Verdict(O, D) (which must find a live collector)
//	vote D V         Vote(D, V) directly
//	deliver          every queued vote, oldest first
//	queued F>T:D ... the queued votes, oldest first
//	armed G ...      every generation armed so far
//	aborts N         rounds aborted so far
//	fire G = R ...   Fire(G) returns ranks R ...; "fire G = nil" for nil
func runScript(t *testing.T, n, budget int, script string) {
	t.Helper()
	h, rc := newRecHost(n, budget)
	ints := func(fs []string) []int {
		var out []int
		for _, f := range fs {
			x, err := strconv.Atoi(f)
			if err != nil {
				t.Fatalf("bad number %q", f)
			}
			out = append(out, x)
		}
		return out
	}
	for i, line := range strings.Split(strings.TrimSpace(script), "\n") {
		f := strings.Fields(line)
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("line %d %q: %s", i+1, strings.TrimSpace(line), fmt.Sprintf(format, args...))
		}
		switch f[0] {
		case "crash":
			h.dead[ints(f[1:2])[0]] = true
		case "spend":
			if got := rc.Spend(ints(f[1:2])[0]); got != (f[2] == "ok") {
				fail("Spend = %v", got)
			}
		case "verdict":
			a := ints(f[1:3])
			if !rc.Verdict(a[0], a[1]) {
				fail("no live collector")
			}
		case "vote":
			a := ints(f[1:3])
			rc.Vote(a[0], a[1])
		case "deliver":
			for len(h.queue) > 0 {
				h.deliver(rc, 0)
			}
		case "queued":
			var got []string
			for _, v := range h.queue {
				got = append(got, fmt.Sprintf("%d>%d:%d", v.from, v.to, v.d))
			}
			if !slices.Equal(got, f[1:]) {
				fail("queued %v", got)
			}
		case "armed":
			if want := ints(f[1:]); !slices.Equal(h.armed, want) {
				fail("armed %v", h.armed)
			}
		case "aborts":
			if want := ints(f[1:2])[0]; h.aborts != want {
				fail("aborts = %d", h.aborts)
			}
		case "fire":
			got := rc.Fire(ints(f[1:2])[0])
			var want []int
			if f[3] != "nil" {
				want = ints(f[3:])
			}
			if !slices.Equal(got, want) || (got == nil) != (want == nil) {
				fail("Fire = %v", got)
			}
		default:
			fail("unknown step")
		}
	}
}

func TestRecovery(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n      int
		budget int
		script string
	}{
		{"converges only on the last live vote", 4, 4, `
			crash 1
			verdict 0 1
			verdict 2 1
			deliver
			armed
			verdict 3 1
			queued 3>0:1
			armed
			deliver
			armed 1
			fire 1 = 1
			aborts 0`},
		{"a verdict while armed aborts the round", 4, 4, `
			crash 2
			verdict 0 2
			verdict 1 2
			verdict 3 2
			deliver
			armed 1
			crash 3
			verdict 0 3
			aborts 1
			fire 1 = nil
			verdict 1 3
			deliver
			armed 1 2
			fire 2 = 2 3
			aborts 1`},
		{"a dead collector's votes are re-cast whole", 4, 4, `
			crash 1
			verdict 0 1
			verdict 2 1
			verdict 3 1
			queued 2>0:1 3>0:1
			crash 0
			deliver
			verdict 3 0
			queued 3>2:0 3>2:1
			verdict 2 0
			deliver
			armed 2
			fire 2 = 0 1`},
		{"a late vote for a recovered rank, or for no rank, is ignored", 3, 3, `
			crash 2
			verdict 0 2
			verdict 1 2
			deliver
			fire 1 = 2
			vote 2 1
			vote 7 1
			armed 1
			aborts 0`},
		{"the budget runs out", 4, 2, `
			spend 1 ok
			spend 1 ok
			spend 2 ok
			spend 3 no
			spend 2 ok`},
		{"a crash outside the set aborts the fire", 4, 4, `
			crash 3
			verdict 0 3
			verdict 1 3
			verdict 2 3
			deliver
			armed 1
			crash 2
			fire 1 = nil
			aborts 1
			verdict 0 2
			verdict 1 2
			deliver
			armed 1 3
			fire 3 = 2 3`},
	} {
		t.Run(tc.name, func(t *testing.T) { runScript(t, tc.n, tc.budget, tc.script) })
	}
}

// FuzzRecovery drives random verdict, vote-delivery, crash and fire
// sequences over 3-4 ranks, then lets every survivor raise its remaining
// verdicts and drains. It checks that no rank is returned by two Fires;
// that every returned set is ascending and dead, and that every live rank
// raised a verdict for each of its members (so every survivor's checkpoint
// manager already knows them); that the generation grows whenever the set
// grows; that no generation is armed twice; and that the drain absorbs
// every dead rank.
func FuzzRecovery(f *testing.F) {
	f.Add([]byte{0, 2, 0, 1, 1, 3, 0})
	f.Add([]byte{1, 2, 0, 0, 1, 2, 4, 0, 5, 1, 3, 3})
	f.Add([]byte{1, 6, 4, 8, 0, 1, 5, 9, 2, 3, 7, 1, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 3 + int(data[0]%2)
		h, rc := newRecHost(n, n)
		raised := make([][]bool, n)
		for o := range raised {
			raised[o] = make([]bool, n)
		}
		returned := make([]bool, n)
		seen := map[int]bool{}
		ranks := func(dead bool) (rs []int) {
			for r, d := range h.dead {
				if d == dead {
					rs = append(rs, r)
				}
			}
			return rs
		}
		pick := func(b byte, dead bool) int { // the b-th rank whose dead == dead, or -1
			if rs := ranks(dead); len(rs) > 0 {
				return rs[int(b)%len(rs)]
			}
			return -1
		}
		verdict := func(o, d int) {
			if !rc.Spend(d) {
				t.Fatalf("budget of %d exhausted", n)
			}
			raised[o][d] = true
			if !rc.Verdict(o, d) {
				t.Fatal("no live collector with a live observer")
			}
		}
		fire := func(i int) {
			gen := h.armed[i]
			set := rc.Fire(gen)
			if !slices.IsSorted(set) {
				t.Fatalf("Fire(%d) = %v, not ascending", gen, set)
			}
			for _, d := range set {
				if !h.dead[d] || returned[d] {
					t.Fatalf("Fire(%d) = %v: rank %d live or returned before", gen, set, d)
				}
				returned[d] = true
				for v, dead := range h.dead {
					if !dead && !raised[v][d] {
						t.Fatalf("Fire(%d) = %v: live rank %d raised no verdict for %d", gen, set, v, d)
					}
				}
			}
		}
		var fired int // h.armed[:fired] have been fired
		for i := 1; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			gen, before := rc.gen, slices.Clone(rc.flags)
			armedBefore := len(h.armed)
			switch op % 4 {
			case 0:
				if o, d := pick(arg, false), pick(arg>>4, true); o >= 0 && d >= 0 {
					verdict(o, d)
				}
			case 1:
				if len(h.queue) > 0 {
					h.deliver(rc, int(arg)%len(h.queue))
				}
			case 2:
				if len(ranks(false)) > 1 {
					h.dead[pick(arg, false)] = true
				}
			case 3:
				if fired < len(h.armed) {
					fire(fired)
					fired++
				}
			}
			for r, fl := range rc.flags {
				if fl&inSet != 0 && before[r]&inSet == 0 && rc.gen <= gen {
					t.Fatalf("rank %d joined the set without a new generation", r)
				}
			}
			for _, g := range h.armed[armedBefore:] {
				if seen[g] {
					t.Fatalf("generation %d armed twice", g)
				}
				seen[g] = true
			}
		}

		// Drain: every survivor raises every verdict it lacks, the votes
		// land, and the armed rounds fire.
		for o, od := range h.dead {
			for d, dd := range h.dead {
				if !od && dd && !raised[o][d] {
					verdict(o, d)
				}
			}
		}
		for len(h.queue) > 0 {
			h.deliver(rc, 0)
		}
		for ; fired < len(h.armed); fired++ {
			fire(fired)
		}
		for r, dead := range h.dead {
			if dead != returned[r] {
				t.Fatalf("after the drain rank %d: dead %v, absorbed %v", r, dead, returned[r])
			}
		}
	})
}
