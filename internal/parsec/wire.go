package parsec

import (
	"encoding/binary"
	"fmt"

	"amtlci/internal/core"
)

// Active-message tags registered by the runtime on every engine.
const (
	tagActivate core.Tag = 1 // task completed; activates remote descendants
	tagGetData  core.Tag = 2 // request the data of a completed task's flow
	tagPutDone  core.Tag = 3 // put remote-completion notifications
	tagTerm     core.Tag = 4 // termination-detection control (term.go)
	tagStealReq core.Tag = 5 // work-stealing probe (steal_node.go)
	tagStealRep core.Tag = 6 // work-stealing grant / denial
	tagStealRel core.Tag = 7 // work-stealing input-pin release
)

type regHandle = core.MemHandle

// activation is one entry of an (aggregated) ACTIVATE message: a completed
// task's output flow plus multicast-tree routing and tracing metadata.
type activation struct {
	task     TaskID
	flow     int32
	size     int64
	root     int32 // rank that produced the data (carried, never read; see putMeta)
	rootSend int64 // virtual time the root ACTIVATE was sent (ps)
	hopRank  int32 // rank that sent this ACTIVATE (tree parent; data source)
	hopSend  int64 // virtual time this hop was sent (ps)
	epoch    int32 // recovery epoch the sender was in (stale entries drop)
	subtree  []int32
}

const activationFixedBytes = 4 + 8 + 4 + 8 + 4 + 8 + 4 + 8 + 2

// packFlow merges a flow index and the sender's recovery epoch into the one
// 32-bit flow word each control message already carries. Control-message
// sizes are part of the calibrated cost model (the Fig 2a anchors are pinned
// byte-for-byte), so the recovery extension must not grow them; flows are
// single-digit output indices and the epoch counts restarts, so 16 bits each
// is roomy. The split is a bijection on the full 32-bit word, which the
// decoder fuzzers rely on.
func packFlow(flow, epoch int32) int32 {
	if flow>>16 != 0 {
		panic(fmt.Sprintf("parsec: flow %d overflows the packed wire word", flow))
	}
	return flow | epoch<<16
}

func unpackFlow(v int32) (flow, epoch int32) { return v & 0xFFFF, v >> 16 }

func (a activation) encodedLen() int { return activationFixedBytes + 4*len(a.subtree) }

func appendActivation(b []byte, a activation) []byte {
	b = le32(b, a.task.Class)
	b = le64(b, a.task.Index)
	b = le32(b, packFlow(a.flow, a.epoch))
	b = le64(b, a.size)
	b = le32(b, a.root)
	b = le64(b, a.rootSend)
	b = le32(b, a.hopRank)
	b = le64(b, a.hopSend)
	b = le16(b, uint16(len(a.subtree)))
	for _, r := range a.subtree {
		b = le32(b, r)
	}
	return b
}

// decodeActivation decodes one entry; its subtree is appended to trees, which
// it aliases, and the extended slice is returned.
func decodeActivation(b []byte, trees []int32) (activation, []int32, []byte, error) {
	var a activation
	if len(b) < activationFixedBytes {
		return a, trees, nil, fmt.Errorf("parsec: activation truncated: %d bytes, need %d",
			len(b), activationFixedBytes)
	}
	a.task.Class, b = rd32(b)
	a.task.Index, b = rd64(b)
	var fw int32
	fw, b = rd32(b)
	a.flow, a.epoch = unpackFlow(fw)
	a.size, b = rd64(b)
	a.root, b = rd32(b)
	a.rootSend, b = rd64(b)
	a.hopRank, b = rd32(b)
	a.hopSend, b = rd64(b)
	var n uint16
	n, b = rd16(b)
	if int(n)*4 > len(b) {
		return a, trees, nil, fmt.Errorf("parsec: activation subtree truncated: %d ranks, %d bytes remain",
			n, len(b))
	}
	if n > 0 {
		off := len(trees)
		for range n {
			var r int32
			r, b = rd32(b)
			trees = append(trees, r)
		}
		a.subtree = trees[off:len(trees):len(trees)]
	}
	return a, trees, b, nil
}

// appendActivates packs entries into one AM payload, prefixed with a count,
// appended to b (the node's encode scratch: SendAM copies its payload).
func appendActivates(b []byte, entries ...activation) []byte {
	b = le16(b, uint16(len(entries)))
	for _, a := range entries {
		b = appendActivation(b, a)
	}
	return b
}

// decodeActivates unpacks an ACTIVATE payload into out[:0], with the entries'
// subtrees in trees[:0] (the node's decode scratch), and returns both
// extended slices.
func decodeActivates(out []activation, trees []int32, b []byte) ([]activation, []int32, error) {
	if len(b) < 2 {
		return nil, trees, fmt.Errorf("parsec: ACTIVATE payload truncated: %d bytes", len(b))
	}
	var n uint16
	n, b = rd16(b)
	if int(n)*activationFixedBytes > len(b) {
		return nil, trees, fmt.Errorf("parsec: ACTIVATE count %d exceeds %d payload bytes", n, len(b))
	}
	out, trees = out[:0], trees[:0]
	for i := 0; i < int(n); i++ {
		a, t, rest, err := decodeActivation(b, trees)
		if err != nil {
			return nil, t, err
		}
		out, trees, b = append(out, a), t, rest
	}
	if len(b) != 0 {
		return nil, trees, fmt.Errorf("parsec: ACTIVATE payload has %d trailing bytes", len(b))
	}
	return out, trees, nil
}

// getData is the GET DATA request payload.
type getData struct {
	task  TaskID
	flow  int32
	epoch int32
	rreg  regHandle
}

const getDataBytes = 4 + 8 + 4 + 4 + 8

func (g getData) appendTo(b []byte) []byte {
	b = le32(b, g.task.Class)
	b = le64(b, g.task.Index)
	b = le32(b, packFlow(g.flow, g.epoch))
	b = le32(b, g.rreg.Rank)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint64(b[len(b)-8:], g.rreg.ID)
	return b
}

func decodeGetData(b []byte) (getData, error) {
	var g getData
	if len(b) != getDataBytes {
		return g, fmt.Errorf("parsec: GET DATA payload is %d bytes, want %d", len(b), getDataBytes)
	}
	g.task.Class, b = rd32(b)
	g.task.Index, b = rd64(b)
	var fw int32
	fw, b = rd32(b)
	g.flow, g.epoch = unpackFlow(fw)
	g.rreg.Rank, b = rd32(b)
	g.rreg.ID = binary.LittleEndian.Uint64(b)
	return g, nil
}

// putMeta rides as the put's remote-completion callback data: it tells the
// requester which flow arrived and carries the tracing stamps. root and
// hopRank are carried but never read; dropping them would shrink every put
// completion and so move every virtual time.
type putMeta struct {
	task     TaskID
	flow     int32
	epoch    int32
	root     int32
	rootSend int64
	hopRank  int32
	hopSend  int64
}

const putMetaBytes = 4 + 8 + 4 + 4 + 8 + 4 + 8

func (p putMeta) appendTo(b []byte) []byte {
	b = le32(b, p.task.Class)
	b = le64(b, p.task.Index)
	b = le32(b, packFlow(p.flow, p.epoch))
	b = le32(b, p.root)
	b = le64(b, p.rootSend)
	b = le32(b, p.hopRank)
	b = le64(b, p.hopSend)
	return b
}

func decodePutMeta(b []byte) (putMeta, error) {
	var p putMeta
	if len(b) != putMetaBytes {
		return p, fmt.Errorf("parsec: put completion payload is %d bytes, want %d", len(b), putMetaBytes)
	}
	p.task.Class, b = rd32(b)
	p.task.Index, b = rd64(b)
	var fw int32
	fw, b = rd32(b)
	p.flow, p.epoch = unpackFlow(fw)
	p.root, b = rd32(b)
	p.rootSend, b = rd64(b)
	p.hopRank, b = rd32(b)
	p.hopSend, b = rd64(b)
	return p, nil
}

// Little-endian append/read helpers.
func le16(b []byte, v uint16) []byte {
	return append(b, byte(v), byte(v>>8))
}
func le32(b []byte, v int32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
func le64(b []byte, v int64) []byte {
	u := uint64(v)
	return append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}
func rd16(b []byte) (uint16, []byte) { return binary.LittleEndian.Uint16(b), b[2:] }
func rd32(b []byte) (int32, []byte)  { return int32(binary.LittleEndian.Uint32(b)), b[4:] }
func rd64(b []byte) (int64, []byte)  { return int64(binary.LittleEndian.Uint64(b)), b[8:] }

// treeSplit computes the binomial multicast children of the first rank in
// ranks: it returns, for each child, the child-rooted slice of the subtree
// (child first), appended to out. PaRSEC propagates broadcasts down such
// trees so that no single rank serves every consumer; the list is the sorted
// consumer set of one flow, and the caller reuses out across flows.
func treeSplit(out [][]int32, ranks []int32) [][]int32 {
	// Binomial: repeatedly hand off the upper half of the remaining list.
	lo, hi := 0, len(ranks)
	for hi-lo > 1 {
		mid := lo + (hi-lo+1)/2
		out = append(out, ranks[mid:hi])
		hi = mid
	}
	return out
}
