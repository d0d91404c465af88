package expd

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Content addressing: a canonical Point is hashed over its JSON encoding.
// encoding/json emits struct fields in declaration order and float64s in
// their shortest round-trip form, so the encoding — and the hash — is a pure
// function of the canonical value. Canonicalization is what makes the hash
// meaningful: field reordering in the submitted JSON, omitted defaults, and
// equivalent unit spellings all collapse to one canonical spec, hence to the
// same points and the same addresses (pinned by TestHashInvariance).

// Hash is the content address of one sweep point — the key of the on-disk
// result cache.
func (p Point) Hash() string {
	data, err := json.Marshal(p)
	if err != nil {
		// Points are plain data; a marshal failure is a programming error,
		// not an input error.
		panic(fmt.Sprintf("expd: marshal for hashing: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
