package stack

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"amtlci/internal/buf"
	"amtlci/internal/core"
	"amtlci/internal/fabric"
	"amtlci/internal/rel"
	"amtlci/internal/sim"
)

// failingStack builds a two-rank deployment whose 0→1 link is severed, with
// the reliability layer interposed: a single message from rank 0 to rank 1
// exhausts the retry budget and surfaces rel.PeerUnreachable through rank
// 0's engine error path. It is the cheapest deterministic way to make an
// engine invoke its OnError handler.
func failingStack(b Backend) *Stack {
	o := DefaultOptions(b, 2)
	o.Fabric.Jitter = 0
	o.Faults = &fabric.FaultConfig{
		Seed:  3,
		Links: []fabric.LinkFault{{Src: 0, Dst: 1, Sever: true}},
	}
	rc := rel.DefaultConfig()
	o.Rel = &rc
	return Build(o)
}

func provoke(s *Stack) {
	const tag core.Tag = 21
	for r := 0; r < 2; r++ {
		s.Engines[r].TagReg(tag, func(core.Engine, core.Tag, []byte, int) {}, 64)
	}
	s.Engines[0].SendAM(tag, 1, []byte("doomed"))
	s.Eng.Run()
}

// TestOnErrorLatestRegistrationWins pins the replacement contract both
// backends document: the engine keeps exactly one handler, so a recovery
// orchestrator can take over error routing from an earlier plain-abort
// registration — the replaced handler must never fire.
func TestOnErrorLatestRegistrationWins(t *testing.T) {
	forEachFailingBackend(t, func(t *testing.T, s *Stack) {
		var firstCalls, secondCalls int
		s.Engines[0].OnError(func(error) { firstCalls++ })
		s.Engines[0].OnError(func(err error) {
			secondCalls++
			var pu *rel.PeerUnreachable
			if !errors.As(err, &pu) {
				t.Fatalf("handler got %v, want PeerUnreachable", err)
			}
		})
		s.Engines[1].OnError(func(error) {})
		provoke(s)
		if firstCalls != 0 {
			t.Fatalf("replaced handler fired %d times", firstCalls)
		}
		if secondCalls == 0 {
			t.Fatal("replacement handler never fired")
		}
	})
}

// TestOnErrorNilIsIgnored: a nil registration must leave the installed
// handler in place rather than arming a nil-call panic on the progress path.
func TestOnErrorNilIsIgnored(t *testing.T) {
	forEachFailingBackend(t, func(t *testing.T, s *Stack) {
		var calls int
		s.Engines[0].OnError(func(error) { calls++ })
		s.Engines[0].OnError(nil)
		s.Engines[1].OnError(func(error) {})
		provoke(s)
		if calls == 0 {
			t.Fatal("handler uninstalled by a nil registration")
		}
	})
}

// TestOnErrorUnregisteredPanics: with no handler at all, a failure panics
// loudly — silently swallowing it would turn an abort into a hang.
func TestOnErrorUnregisteredPanics(t *testing.T) {
	forEachFailingBackend(t, func(t *testing.T, s *Stack) {
		defer func() {
			if recover() == nil {
				t.Fatal("failure with no OnError handler did not panic")
			}
		}()
		provoke(s)
	})
}

func forEachFailingBackend(t *testing.T, f func(t *testing.T, s *Stack)) {
	t.Helper()
	for _, b := range Backends {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			f(t, failingStack(b))
		})
	}
}

// TestPeerDeathEvictsAndKeepsServing pins the other half of the OnError
// contract: a PeerDeath verdict evicts the dead rank without failing the
// engine. Rank 2 crashes under the heartbeat detector; afterwards rank 0's
// active messages and puts toward it are dropped before they count, while
// traffic between the survivors still completes, Err stays nil, and each
// survivor's handler hears exactly one PeerDeath, naming rank 2.
func TestPeerDeathEvictsAndKeepsServing(t *testing.T) {
	const (
		tag     core.Tag = 22
		crashAt          = 10 * sim.Microsecond
	)
	for _, b := range Backends {
		t.Run(b.String(), func(t *testing.T) {
			o := DefaultOptions(b, 3)
			o.Fabric.Jitter = 0
			o.Faults = &fabric.FaultConfig{Crashes: []fabric.NodeCrash{{Rank: 2, At: sim.Time(crashAt)}}}
			rc := rel.DefaultConfig()
			rc.EnableHeartbeats()
			o.Rel = &rc
			s := Build(o)

			var delivered []string
			for r, e := range s.Engines {
				e.TagReg(tag, func(_ core.Engine, _ core.Tag, data []byte, src int) {
					delivered = append(delivered, fmt.Sprintf("%d->%d %s", src, r, data))
				}, 64)
			}
			deaths := make([][]int, 2)
			for r := 0; r < 2; r++ {
				r := r
				s.Engines[r].OnError(func(err error) {
					var pd core.PeerDeath
					if !errors.As(err, &pd) {
						t.Fatalf("rank %d: handler got %v, want a PeerDeath", r, err)
					}
					deaths[r] = append(deaths[r], pd.DeadPeer())
				})
			}
			s.Engines[2].OnError(func(error) {})

			// Past the verdict: the lease expires LeaseTimeout after the
			// crash, noticed at the next detector tick.
			verdict := sim.Time(crashAt + rc.LeaseTimeout + 4*rc.HeartbeatPeriod)
			s.Eng.RunUntil(verdict)
			for r := 0; r < 2; r++ {
				if !slices.Equal(deaths[r], []int{2}) {
					t.Fatalf("rank %d heard deaths %v, want [2]", r, deaths[r])
				}
			}

			src := s.Engines[0]
			payload := []byte("tile")
			lreg := src.MemReg(buf.FromBytes(payload))
			sent, started := engineCount(s, "ams_sent", 0), engineCount(s, "puts_started", 0)
			src.SendAM(tag, 2, []byte("lost"))
			src.Submit(0, func() {
				src.Put(core.PutArgs{
					LReg: lreg, RReg: core.MemHandle{Rank: 2, ID: 1}, Size: int64(len(payload)), Remote: 2,
					LocalCB: func() { t.Error("put toward the dead rank completed locally") },
					RTag:    tag,
				})
			})
			s.Eng.RunUntil(verdict + sim.Time(sim.Millisecond))
			if n := engineCount(s, "ams_sent", 0); n != sent {
				t.Fatalf("ams_sent moved %d -> %d for a send toward the dead rank", sent, n)
			}
			if n := engineCount(s, "puts_started", 0); n != started {
				t.Fatalf("puts_started moved %d -> %d for a put toward the dead rank", started, n)
			}

			target := make([]byte, len(payload))
			rreg := s.Engines[1].MemReg(buf.FromBytes(target))
			localDone := false
			src.SendAM(tag, 1, []byte("am"))
			src.Submit(0, func() {
				src.Put(core.PutArgs{
					LReg: lreg, RReg: rreg, Size: int64(len(payload)), Remote: 1,
					LocalCB: func() { localDone = true },
					RTag:    tag, RCBData: []byte("put"),
				})
			})
			s.Rel.StopHeartbeats()
			s.Eng.Run()
			if want := []string{"0->1 am", "0->1 put"}; !slices.Equal(delivered, want) || !localDone {
				t.Fatalf("survivor traffic: delivered %q, local completion %v; want %q and true", delivered, localDone, want)
			}
			if string(target) != string(payload) {
				t.Fatalf("put landed %q, want %q", target, payload)
			}
			for r := 0; r < 2; r++ {
				if err := s.Engines[r].Err(); err != nil {
					t.Fatalf("rank %d: Err() = %v after an eviction", r, err)
				}
				if len(deaths[r]) != 1 {
					t.Fatalf("rank %d heard deaths %v, want one", r, deaths[r])
				}
			}
		})
	}
}
