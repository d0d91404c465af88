package expd

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Cache is the on-disk content-addressed result store: one JSON file per
// completed point, named by the point's hash, fanned out over 256
// two-hex-digit subdirectories. Writes are atomic (temp file + rename in
// the same directory), so a cache entry either exists completely or not at
// all — an interrupted sweep never leaves a torn result behind, and a
// re-run picks up every point that completed. A cache entry is a pure
// function of its point, so a missing or unreadable entry is merely
// re-simulated and the re-filled bytes are identical.
type Cache struct {
	dir string
}

// OpenCache opens (creating if needed) a cache rooted at dir.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("expd: open cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// path is the entry file of hash.
func (c *Cache) path(hash string) string {
	return filepath.Join(c.dir, hash[:2], hash+".json")
}

// validHash guards path construction against non-hash inputs.
func validHash(h string) bool {
	if len(h) != 64 {
		return false
	}
	return strings.IndexFunc(h, func(r rune) bool {
		return !(r >= '0' && r <= '9' || r >= 'a' && r <= 'f')
	}) < 0
}

// GetResult decodes the cached PointResult of hash, or ok=false on a miss.
func (c *Cache) GetResult(hash string) (PointResult, bool) {
	if !validHash(hash) {
		return PointResult{}, false
	}
	data, err := os.ReadFile(c.path(hash))
	if err != nil {
		return PointResult{}, false
	}
	var r PointResult
	if err := json.Unmarshal(data, &r); err != nil {
		// A torn or corrupted entry is treated as a miss; the point will
		// re-simulate and overwrite it.
		return PointResult{}, false
	}
	return r, true
}

// PutResult encodes r and stores it under hash atomically.
func (c *Cache) PutResult(hash string, r PointResult) error {
	if !validHash(hash) {
		return fmt.Errorf("expd: cache put: bad hash %q", hash)
	}
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	dir := filepath.Join(c.dir, hash[:2])
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, hash+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), c.path(hash))
}
