package expd

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
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

// cacheFormat versions the entry encoding. An entry of any other format
// reads as a miss and is re-simulated; entries written before entries
// carried a format (whose chaos makespans were picoseconds) have none.
const cacheFormat = 2

// GetResult decodes the cached result of hash, which must be of the given
// result kind (Point.resultKind), or ok=false on a miss.
func (c *Cache) GetResult(hash, kind string) (PointResult, bool) {
	if !validHash(hash) {
		return PointResult{}, false
	}
	data, err := os.ReadFile(c.path(hash))
	if err != nil {
		return PointResult{}, false
	}
	// A torn, corrupted, older-format or other-kind entry is a miss; the
	// point will re-simulate and overwrite it. The entry decodes into raw
	// parts and the result into its own kind's type: decoding into a struct
	// would build (and retain) the encoders of every result type it holds.
	var e map[string]json.RawMessage
	if err := json.Unmarshal(data, &e); err != nil || string(e["format"]) != strconv.Itoa(cacheFormat) {
		return PointResult{}, false
	}
	raw, ok := e[kind]
	r, into := resultFor(kind)
	if !ok || into == nil || json.Unmarshal(raw, into) != nil {
		return PointResult{}, false
	}
	return r, true
}

// PutResult stores r under hash atomically. The entry holds the format and
// r's one result under its kind: only that result's type is encoded, so a
// sweep never builds (and encoding/json never retains) the encoders of
// result types it does not hold.
func (c *Cache) PutResult(hash string, r PointResult) error {
	if !validHash(hash) {
		return fmt.Errorf("expd: cache put: bad hash %q", hash)
	}
	kind, v := r.result()
	if v == nil {
		return fmt.Errorf("expd: cache put: empty result")
	}
	data, err := json.Marshal(map[string]any{"format": cacheFormat, kind: v})
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
