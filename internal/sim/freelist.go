package sim

// ShardListCap caps the free lists of records that cross the wire: they are
// shared by all ranks of a shard (a record is retired where it is delivered,
// so per-rank lists would drain on every one-way stream) and sized for a
// shard's worth of messages in flight.
const ShardListCap = 256

// PoisonRetired, when set, makes every FreeList drop the records Put into it:
// nothing is ever reused, so a record stays in its retired state (fields
// zeroed, not live) for good and any later use of it fails deterministically
// instead of silently reading its next owner's data. Tests set it before
// building a stack to prove that no layer touches a record after retiring
// it; results must not change, because reuse must be invisible.
var PoisonRetired bool

// FreeList is a LIFO cache of retired records of one type, touched only from
// its owner's engine goroutine. The message path takes its per-step records
// from such lists instead of allocating a closure per deferred step
// (DESIGN.md §3). A record lost on the way (a crash, a purge, a dropped
// message) is simply never put back.
//
// The zero value is an empty, uncapped list: records are run-scoped, so a
// list keeps every record it is handed, together with the payload slab the
// record owns, and a run pays for its in-flight peak once. Its owner drops
// the list (Drop) when the run is over, and with it the records.
type FreeList[T any] struct {
	free []*T
	// Cap, when positive, bounds the list: a Put beyond it drops the record.
	Cap int
}

// Get pops a retired record, or returns nil when the list is empty.
func (l *FreeList[T]) Get() *T {
	n := len(l.free)
	if n == 0 {
		return nil
	}
	r := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return r
}

// Put caches r for reuse. The caller must have dropped every reference to r
// and cleared the fields that would pin other objects.
func (l *FreeList[T]) Put(r *T) {
	if !PoisonRetired && (l.Cap <= 0 || len(l.free) < l.Cap) {
		l.free = append(l.free, r)
	}
}

// Drop empties the list, leaving its records to the GC; Cap is kept.
func (l *FreeList[T]) Drop() { l.free = nil }

// ShardFreeLists returns one empty FreeList per shard of dom, capped at
// ShardListCap, for records that cross the wire: rank r takes from and
// retires into lists[dom.ShardOf(r)]. Each list sits in its own padded
// allocation, so two shards' goroutines never write the same cache line.
func ShardFreeLists[T any](dom Domain) []*FreeList[T] {
	lists := make([]*FreeList[T], dom.Shards())
	for i := range lists {
		padded := &struct {
			FreeList[T]
			_ [64]byte
		}{}
		padded.Cap = ShardListCap
		lists[i] = &padded.FreeList
	}
	return lists
}

// Len returns the number of cached records.
func (l *FreeList[T]) Len() int { return len(l.free) }
