package expd

import (
	"bytes"
	"context"
	"os"
	"sync"
	"testing"
	"time"

	"amtlci/internal/metrics"
)

// tinyTileSpec is a 6-point tile sweep (N=3600, 2 backends x 3 tiles).
const tinyTileSpec = `{"kind":"tile","scale":0.01,"nodes":2,"runs":1}`

// cacheSweep evaluates spec through cache, the way cmd/experiments -cache
// does, and returns its CSV, its points and, per point, whether Done
// reported a cache hit.
func cacheSweep(t *testing.T, cache *Cache, spec string) ([]byte, []Point, []bool) {
	t.Helper()
	s, err := DecodeSpec([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	pts := s.Points()
	var mu sync.Mutex
	cached := make([]bool, len(pts))
	res, err := EvalPoints(context.Background(), 2, pts, cache, EvalHooks{
		Done: func(i int, _ PointResult, hit bool, err error, _ time.Duration) {
			if err != nil {
				t.Errorf("point %d: %v", i, err)
			}
			mu.Lock()
			cached[i] = hit
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := AssembleTable(s, pts, res)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tbl.CSV(&buf)
	return buf.Bytes(), pts, cached
}

func countHits(cached []bool) int {
	n := 0
	for _, c := range cached {
		if c {
			n++
		}
	}
	return n
}

// TestEvalPointsCacheHit: a cold sweep simulates every point, an
// overlapping sweep is served from the cache, and a warm re-run renders
// byte-identical CSV.
func TestEvalPointsCacheHit(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold, pts, cached := cacheSweep(t, cache, tinyTileSpec)
	if len(pts) != 6 || countHits(cached) != 0 {
		t.Fatalf("cold sweep: %d points, %d cache hits; want 6 points, 0 hits", len(pts), countHits(cached))
	}
	if !bytes.HasPrefix(cold, []byte("backend,nodes,tile,mt,")) {
		t.Errorf("unexpected CSV header: %.80s", cold)
	}

	// A subset sweep shares every point: zero new simulations.
	_, sub, cached := cacheSweep(t, cache, `{"kind":"tile","scale":0.01,"nodes":2,"runs":1,"tiles":[1200,1800]}`)
	if len(sub) != 4 || countHits(cached) != 4 { // 2 backends x 2 tiles
		t.Fatalf("subset sweep: %d points, %d cache hits; want 4 and 4", len(sub), countHits(cached))
	}

	// A warm re-run is served from the cache and renders the same bytes.
	warm, _, cached := cacheSweep(t, cache, tinyTileSpec)
	if countHits(cached) != 6 {
		t.Fatalf("warm re-run hit %d cached points, want 6", countHits(cached))
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("warm CSV differs from cold CSV:\n%s\nvs\n%s", cold, warm)
	}
}

// TestEvalPointsCacheTornEntry: a truncated entry reads as a miss; the
// re-run re-simulates that one point, rewrites its entry with the original
// bytes, and renders the same CSV as the cold sweep.
func TestEvalPointsCacheTornEntry(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold, pts, _ := cacheSweep(t, cache, tinyTileSpec)

	victim := cache.path(pts[0].Hash())
	whole, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victim, whole[:len(whole)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.GetResult(pts[0].Hash(), PointHiCMA); ok {
		t.Fatal("truncated entry reads as a hit")
	}
	again, _, cached := cacheSweep(t, cache, tinyTileSpec)
	if cached[0] || countHits(cached) != 5 {
		t.Fatalf("re-run after truncation: cached=%v, want a miss on point 0 only", cached)
	}
	if !bytes.Equal(cold, again) {
		t.Fatalf("CSV after re-simulating the truncated point differs:\n%s\nvs\n%s", cold, again)
	}
	if rewritten, err := os.ReadFile(victim); err != nil || !bytes.Equal(rewritten, whole) {
		t.Fatalf("truncated entry not rewritten intact (err %v):\n%s\nvs\n%s", err, rewritten, whole)
	}
	// The rewritten entry reads warm.
	if _, ok := cache.GetResult(pts[0].Hash(), PointHiCMA); !ok {
		t.Fatal("rewritten entry reads as a miss")
	}
}

// TestEvalPointsCacheOldFormat: an entry without the format version (the
// encoding of earlier caches, {"hicma":{...}}) and an entry of another
// result kind read as misses; the re-run re-simulates that point and
// overwrites the entry in the current format.
func TestEvalPointsCacheOldFormat(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold, pts, _ := cacheSweep(t, cache, tinyTileSpec)
	victim := cache.path(pts[0].Hash())
	whole, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	for _, stale := range [][]byte{
		bytes.Replace(whole, []byte(`"format":2,`), nil, 1),
		bytes.Replace(whole, []byte(`"hicma":`), []byte(`"overlap":`), 1),
	} {
		if err := os.WriteFile(victim, stale, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := cache.GetResult(pts[0].Hash(), PointHiCMA); ok {
			t.Fatalf("stale entry %.40s... reads as a hit", stale)
		}
		again, _, cached := cacheSweep(t, cache, tinyTileSpec)
		if cached[0] || countHits(cached) != 5 {
			t.Fatalf("re-run over a stale entry: cached=%v, want a miss on point 0 only", cached)
		}
		if !bytes.Equal(cold, again) {
			t.Fatalf("CSV after re-simulating the stale point differs:\n%s\nvs\n%s", cold, again)
		}
		if rewritten, err := os.ReadFile(victim); err != nil || !bytes.Equal(rewritten, whole) {
			t.Fatalf("stale entry not overwritten in the current format (err %v):\n%s\nvs\n%s", err, rewritten, whole)
		}
	}
}

// TestEvalPointsRegistryBypassesOnlyItsPoint: a point that hands back its
// registry is simulated, since cache entries hold none, while every point
// whose Registry sink is nil is still served from the cache.
func TestEvalPointsRegistryBypassesOnlyItsPoint(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, pts, _ := cacheSweep(t, cache, tinyTileSpec)
	var mu sync.Mutex
	cached := make([]bool, len(pts))
	var rows []int
	_, err = EvalPoints(context.Background(), 2, pts, cache, EvalHooks{
		Done: func(i int, _ PointResult, hit bool, _ error, _ time.Duration) {
			mu.Lock()
			cached[i] = hit
			mu.Unlock()
		},
		Registry: func(i int) func(int, *metrics.Registry) {
			if i != 0 {
				return nil
			}
			return func(row int, reg *metrics.Registry) {
				if reg != nil {
					rows = append(rows, row)
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cached[0] || countHits(cached) != len(pts)-1 {
		t.Errorf("cached=%v, want a miss on point 0 only", cached)
	}
	if len(rows) != 1 || rows[0] != 0 {
		t.Errorf("point 0 handed back registries of rows %v, want [0]", rows)
	}
}
