package parsec

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestActivationRoundTrip(t *testing.T) {
	f := func(class int32, index int64, flow int32, size int64, root int32,
		rootSend, hopSend int64, hopRank, epoch int32, subtree []int32) bool {
		if len(subtree) > 1000 {
			subtree = subtree[:1000]
		}
		// flow and epoch share one packed 16+16-bit wire word.
		flow &= 0xFFFF
		epoch = int32(int16(epoch))
		a := activation{
			task: TaskID{Class: class, Index: index}, flow: flow, size: size,
			root: root, rootSend: rootSend, hopRank: hopRank, hopSend: hopSend,
			epoch: epoch, subtree: subtree,
		}
		got, _, rest, err := decodeActivation(appendActivation(nil, a), nil)
		if err != nil || len(rest) != 0 {
			return false
		}
		if got.task != a.task || got.flow != a.flow || got.size != a.size ||
			got.root != a.root || got.rootSend != a.rootSend ||
			got.hopRank != a.hopRank || got.hopSend != a.hopSend ||
			got.epoch != a.epoch {
			return false
		}
		if len(got.subtree) != len(a.subtree) {
			return false
		}
		for i := range a.subtree {
			if got.subtree[i] != a.subtree[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAggregatedActivationsRoundTrip(t *testing.T) {
	var entries []activation
	for i := 0; i < 37; i++ {
		entries = append(entries, activation{
			task: TaskID{Class: int32(i % 4), Index: int64(i * 1000)},
			flow: int32(i % 3), size: int64(i * 4096),
			root: int32(i % 16), rootSend: int64(i) * 777,
			hopRank: int32(i % 8), hopSend: int64(i) * 333,
		})
	}
	got, _, err := decodeActivates(nil, nil, appendActivates(nil, entries...))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(entries))
	}
	for i := range entries {
		if got[i].task != entries[i].task || got[i].size != entries[i].size {
			t.Fatalf("entry %d mismatch", i)
		}
	}
}

func TestGetDataRoundTrip(t *testing.T) {
	g := getData{task: TaskID{Class: 2, Index: 123456789}, flow: 1, epoch: 3,
		rreg: regHandle{Rank: 7, ID: 0xDEADBEEF}}
	got, err := decodeGetData(g.appendTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got != g {
		t.Fatalf("got %+v, want %+v", got, g)
	}
}

func TestPutMetaRoundTrip(t *testing.T) {
	f := func(class int32, index int64, flow, epoch, root int32, rootSend int64,
		hopRank int32, hopSend int64) bool {
		flow &= 0xFFFF
		epoch = int32(int16(epoch))
		m := putMeta{task: TaskID{Class: class, Index: index}, flow: flow,
			epoch: epoch, root: root, rootSend: rootSend, hopRank: hopRank,
			hopSend: hopSend}
		got, err := decodePutMeta(m.appendTo(nil))
		return err == nil && got == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsMalformedPayloads(t *testing.T) {
	act := appendActivates(nil, activation{
		task: TaskID{Class: 1, Index: 2}, flow: 1, size: 64,
		subtree: []int32{3, 4, 5},
	})
	g := getData{task: TaskID{Class: 2, Index: 9}, flow: 1,
		rreg: regHandle{Rank: 3, ID: 17}}.appendTo(nil)
	m := putMeta{task: TaskID{Class: 4, Index: 5}, flow: 2, root: 1}.appendTo(nil)

	cases := []struct {
		name string
		err  func([]byte) error
		good []byte
	}{
		{"activates", func(b []byte) error { _, _, err := decodeActivates(nil, nil, b); return err }, act},
		{"getData", func(b []byte) error { _, err := decodeGetData(b); return err }, g},
		{"putMeta", func(b []byte) error { _, err := decodePutMeta(b); return err }, m},
	}
	for _, tc := range cases {
		if err := tc.err(tc.good); err != nil {
			t.Fatalf("%s: well-formed payload rejected: %v", tc.name, err)
		}
		// Every strict prefix must be rejected, as must one trailing byte —
		// never a panic, never silent acceptance.
		for cut := 0; cut < len(tc.good); cut++ {
			if err := tc.err(tc.good[:cut]); err == nil {
				t.Fatalf("%s: truncation to %d bytes accepted", tc.name, cut)
			}
		}
		if err := tc.err(append(append([]byte(nil), tc.good...), 0)); err == nil {
			t.Fatalf("%s: trailing byte accepted", tc.name)
		}
	}

	// An ACTIVATE whose count promises more entries than the payload holds.
	if _, _, err := decodeActivates(nil, nil, []byte{0xFF, 0xFF, 1, 2, 3}); err == nil {
		t.Fatal("oversized ACTIVATE count accepted")
	}
}

func FuzzDecodeActivates(f *testing.F) {
	f.Add(appendActivates(nil))
	f.Add(appendActivates(nil, activation{
		task: TaskID{Class: 1, Index: 2}, flow: 1, size: 4096,
		root: 3, rootSend: 777, hopRank: 2, hopSend: 333, subtree: []int32{4, 5},
	}))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, b []byte) {
		entries, _, err := decodeActivates(nil, nil, b)
		if err != nil {
			return
		}
		// Accepted payloads must re-encode byte-for-byte: the format is a
		// bijection, so anything else means a field was mis-parsed.
		if re := appendActivates(nil, entries...); !bytes.Equal(re, b) {
			t.Fatalf("re-encode mismatch:\n in  %x\n out %x", b, re)
		}
	})
}

func FuzzDecodeGetData(f *testing.F) {
	f.Add(getData{task: TaskID{Class: 2, Index: 9}, flow: 1,
		rreg: regHandle{Rank: 3, ID: 17}}.appendTo(nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		g, err := decodeGetData(b)
		if err != nil {
			return
		}
		if re := g.appendTo(nil); !bytes.Equal(re, b) {
			t.Fatalf("re-encode mismatch:\n in  %x\n out %x", b, re)
		}
	})
}

func FuzzDecodePutMeta(f *testing.F) {
	f.Add(putMeta{task: TaskID{Class: 4, Index: 5}, flow: 2, root: 1,
		rootSend: 99, hopRank: 3, hopSend: 101}.appendTo(nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodePutMeta(b)
		if err != nil {
			return
		}
		if re := m.appendTo(nil); !bytes.Equal(re, b) {
			t.Fatalf("re-encode mismatch:\n in  %x\n out %x", b, re)
		}
	})
}

func TestTreeSplitPartitionsExactly(t *testing.T) {
	// Property: the children's subtrees partition ranks[1:] (no loss, no
	// duplication), and tree depth is logarithmic.
	f := func(n uint8) bool {
		size := int(n%64) + 1
		ranks := make([]int32, size)
		for i := range ranks {
			ranks[i] = int32(i * 3)
		}
		children := treeSplit(nil, ranks)
		seen := map[int32]bool{}
		for _, sub := range children {
			if len(sub) == 0 {
				return false
			}
			for _, r := range sub {
				if seen[r] || r == ranks[0] {
					return false
				}
				seen[r] = true
			}
		}
		if len(seen) != size-1 {
			return false
		}
		// Binomial root degree is ceil(log2(size)).
		deg := 0
		for s := size; s > 1; s = (s + 1) / 2 {
			deg++
		}
		return len(children) == deg
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeSplitDepthLogarithmic(t *testing.T) {
	// Follow the deepest chain: with 1024 ranks the tree depth must be 10.
	var depth func(ranks []int32) int
	depth = func(ranks []int32) int {
		if len(ranks) <= 1 {
			return 0
		}
		best := 0
		for _, sub := range treeSplit(nil, ranks) {
			if d := depth(sub); d > best {
				best = d
			}
		}
		return best + 1
	}
	ranks := make([]int32, 1024)
	for i := range ranks {
		ranks[i] = int32(i)
	}
	if d := depth(ranks); d != 10 {
		t.Fatalf("depth = %d, want 10", d)
	}
}

func TestTreeSplitMatchesBinomialShape(t *testing.T) {
	// Every rank of a 13-rank list appears exactly once across the
	// child-rooted subtrees.
	ranks := make([]int32, 13)
	for i := range ranks {
		ranks[i] = int32(i * 3)
	}
	seen := map[int32]int{}
	var walk func(sub []int32)
	walk = func(sub []int32) {
		seen[sub[0]]++
		for _, ch := range treeSplit(nil, sub) {
			walk(ch)
		}
	}
	walk(ranks)
	for _, r := range ranks {
		if seen[r] != 1 {
			t.Errorf("rank %d seen %d times", r, seen[r])
		}
	}
	if len(treeSplit(nil, []int32{7})) != 0 {
		t.Error("singleton list has children")
	}
}

func TestTrivialTrees(t *testing.T) {
	if c := treeSplit(nil, []int32{5}); len(c) != 0 {
		t.Fatalf("singleton tree has children: %v", c)
	}
	c := treeSplit(nil, []int32{1, 2})
	if len(c) != 1 || len(c[0]) != 1 || c[0][0] != 2 {
		t.Fatalf("pair tree: %v", c)
	}
}

func TestPrioQueueOrdering(t *testing.T) {
	q := prioQueue{cells: new(cellArena[queued])}
	q.Push(1, TaskID{Index: 1}, 0)
	q.Push(9, TaskID{Index: 2}, 0)
	q.Push(5, TaskID{Index: 3}, 0)
	q.Push(9, TaskID{Index: 4}, 0) // FIFO among equals
	want := []int64{2, 4, 3, 1}
	for i, w := range want {
		if got := q.Pop().task.Index; got != w {
			t.Fatalf("pop %d = %d, want %d", i, got, w)
		}
	}
}
