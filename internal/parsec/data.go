package parsec

import (
	"amtlci/internal/buf"
)

// bufAlias lets parsec.DataRef expose the shared buffer type directly.
type bufAlias = buf.Buf

// VirtualData returns a storage-less payload of n bytes.
func VirtualData(n int64) DataRef { return DataRef{Buf: buf.Virtual(n)} }

// RealData wraps a concrete byte slice.
func RealData(b []byte) DataRef { return DataRef{Buf: buf.FromBytes(b)} }

// flowKey identifies one produced dataflow instance.
type flowKey struct {
	task TaskID
	flow int32
}

// flowState is the lifecycle of a dataflow copy at one rank.
type flowState int8

const (
	flowAnnounced flowState = iota // ACTIVATE seen, fetch not started
	flowQueued                     // fetch accepted, waiting in the queue
	flowFetching                   // GET DATA sent, data in flight
	flowReady                      // payload available at this rank
)

// getReq is a GET DATA request waiting at a rank that does not yet hold the
// data (a forwarder whose own copy is still in flight).
type getReq struct {
	requester int
	epoch     int32
	rreg      regHandle
}
