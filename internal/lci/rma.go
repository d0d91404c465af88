package lci

import (
	"fmt"

	"amtlci/internal/buf"
)

// This file implements the paper's stated future work (§7): "introducing
// new features to LCI that can directly implement the PaRSEC put interface".
// Putd is a true one-sided put with a remote completion notification: the
// initiator names the target's registered region, the payload travels in a
// single wire transfer with no rendezvous handshake, the NIC writes memory
// directly (no target-CPU copy cost), and the target's RMA completion
// handler receives the initiator-supplied metadata.

// RMAKey names a remotely writable registered region of an endpoint. Keys
// are chosen by the registrar and must be unique per endpoint; consumers
// exchange them out of band (e.g. inside a GET DATA message).
type RMAKey struct {
	ID uint64
}

// RegisterRMA exposes b for one-sided writes under the given key. It panics
// on a duplicate key.
func (ep *Endpoint) RegisterRMA(key RMAKey, b buf.Buf) {
	if ep.rmaMem == nil {
		ep.rmaMem = make(map[RMAKey]buf.Buf)
	}
	if _, dup := ep.rmaMem[key]; dup {
		panic(fmt.Sprintf("lci: RMA key %v registered twice", key))
	}
	ep.rmaMem[key] = b
}

// DeregisterRMA withdraws a registration; unknown keys panic (a put may be
// in flight toward them).
func (ep *Endpoint) DeregisterRMA(key RMAKey) {
	if _, ok := ep.rmaMem[key]; !ok {
		panic(fmt.Sprintf("lci: deregistering unknown RMA key %v", key))
	}
	delete(ep.rmaMem, key)
}

// SetRMAComp installs the completion target invoked (from Progress) when a
// one-sided put lands: the Request carries the initiator's metadata in Data
// and the initiator rank.
func (ep *Endpoint) SetRMAComp(c Comp) { ep.rmaComp = c }

// Putd starts a one-sided put of b into the region registered at dst under
// key, at byte offset off. meta is delivered to the target's RMA completion
// handler; comp fires at the initiator when the source buffer is reusable.
// Putd participates in the Direct resource pool (ErrRetry back-pressure).
// The caller charges Config.PostCost.
func (ep *Endpoint) Putd(dst int, key RMAKey, off int64, b buf.Buf, meta []byte, comp Comp, userCtx any) error {
	if ep.direct.Value() >= int64(ep.rt.cfg.MaxDirect) {
		ep.retries.Inc()
		return ErrRetry
	}
	ep.direct.Add(1)
	ep.sent.Inc()
	p := ep.newPacket(kindPut, dst, b.Size+int64(len(meta))+ep.rt.cfg.HeaderBytes)
	p.size, p.payload = b.Size, b
	p.rmaKey, p.rmaOff, p.rmaMeta = key, off, append([]byte(nil), meta...)
	p.sctx = ep.newOp(0, dst, b, comp, userCtx)
	p.msg.OnTx = p.onTx
	ep.rt.fab.Send(&p.msg)
	return nil
}
