package expd

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// testHash derives a distinct valid content address from an index.
func testHash(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("cache-test-%d", i)))
	return hex.EncodeToString(sum[:])
}

func payload(i int) []byte {
	return []byte(fmt.Sprintf(`{"entry":%d}`, i))
}

// TestCacheLRUBoundEvictsOldest: filling a bounded cache past its limit
// evicts the oldest entries — index, file, and all — and counts them.
func TestCacheLRUBoundEvictsOldest(t *testing.T) {
	c, err := OpenCacheBounded(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := c.Put(testHash(i), payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Evictions(); got != 2 {
		t.Fatalf("evictions = %d, want 2", got)
	}
	if got := c.Len(); got != 4 {
		t.Fatalf("tracked entries = %d, want 4", got)
	}
	for i := 0; i < 2; i++ {
		if c.Has(testHash(i)) {
			t.Fatalf("entry %d survived eviction", i)
		}
	}
	for i := 2; i < 6; i++ {
		data, ok := c.Get(testHash(i))
		if !ok || !bytes.Equal(data, payload(i)) {
			t.Fatalf("entry %d: ok=%v data=%q, want %q", i, ok, data, payload(i))
		}
	}
}

// TestCacheGetTouchesRecency: a Get refreshes an entry's recency, so the
// eviction victim is the least-recently-USED entry, not the oldest write.
func TestCacheGetTouchesRecency(t *testing.T) {
	c, err := OpenCacheBounded(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Put(testHash(i), payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.Get(testHash(0)); !ok {
		t.Fatal("warm entry 0 missing")
	}
	if err := c.Put(testHash(3), payload(3)); err != nil {
		t.Fatal(err)
	}
	if c.Has(testHash(1)) {
		t.Fatal("entry 1 (LRU) should have been evicted")
	}
	for _, i := range []int{0, 2, 3} {
		if !c.Has(testHash(i)) {
			t.Fatalf("entry %d evicted, want kept", i)
		}
	}
}

// TestCacheWarmReadAfterEviction is the correctness property that makes
// bounding safe: an evicted point reads as a miss, re-filling it (what a
// re-simulation would do — results are pure functions of their point)
// restores byte-identical content, and the warm read returns it intact.
func TestCacheWarmReadAfterEviction(t *testing.T) {
	c, err := OpenCacheBounded(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	victim := testHash(0)
	res := PointResult{Chaos: &ChaosPointResult{BaselineNS: 42500,
		Rows: []ChaosRow{{RatePct: 2, MakespanNS: 43100, Slowdown: 1.014, Retransmits: 7, Verified: true}}}}
	if err := c.PutResult(victim, res); err != nil {
		t.Fatal(err)
	}
	first, ok := c.Get(victim)
	if !ok {
		t.Fatal("fresh entry missing")
	}
	first = append([]byte(nil), first...)

	// Push the victim out.
	for i := 1; i <= 2; i++ {
		if err := c.Put(testHash(i), payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions())
	}
	if _, ok := c.GetResult(victim); ok {
		t.Fatal("evicted entry still reads")
	}

	// Re-fill (the re-simulation a real miss triggers) and read warm.
	if err := c.PutResult(victim, res); err != nil {
		t.Fatal(err)
	}
	second, ok := c.Get(victim)
	if !ok {
		t.Fatal("re-filled entry missing")
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("re-filled bytes differ:\n first %s\n second %s", first, second)
	}
	back, ok := c.GetResult(victim)
	if !ok || !reflect.DeepEqual(back, res) {
		t.Fatalf("warm read after eviction: ok=%v got %+v, want %+v", ok, back, res)
	}
}

// TestCacheReopenSeedsRecencyAndTrims: reopening a bounded cache over an
// existing directory rebuilds the LRU order from file mtimes and enforces
// the (possibly shrunk) bound immediately.
func TestCacheReopenSeedsRecencyAndTrims(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir) // unbounded fill
	if err != nil {
		t.Fatal(err)
	}
	base := time.Now().Add(-time.Hour)
	for i := 0; i < 5; i++ {
		h := testHash(i)
		if err := c.Put(h, payload(i)); err != nil {
			t.Fatal(err)
		}
		// Distinct, ordered mtimes: entry 0 oldest.
		when := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(filepath.Join(dir, h[:2], h+".json"), when, when); err != nil {
			t.Fatal(err)
		}
	}

	b, err := OpenCacheBounded(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if b.Evictions() != 2 {
		t.Fatalf("evictions at open = %d, want 2", b.Evictions())
	}
	for i := 0; i < 2; i++ {
		if b.Has(testHash(i)) {
			t.Fatalf("oldest entry %d survived the reopen trim", i)
		}
	}
	for i := 2; i < 5; i++ {
		if data, ok := b.Get(testHash(i)); !ok || !bytes.Equal(data, payload(i)) {
			t.Fatalf("entry %d lost by the reopen trim", i)
		}
	}
	if b.Len() != 3 {
		t.Fatalf("tracked entries = %d, want 3", b.Len())
	}
}
