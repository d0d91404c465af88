package sim

// Free-list caps. A list is a cache, not an account: it fills on demand, a
// Put beyond the cap drops the record for the GC, and a record lost on the
// way (a crash, a purge, a dropped message) is simply never put back. Capped
// lists owned by one rank hold a few dozen records at most; the lists of
// records that cross the wire are shared by all ranks of a shard (a record is
// retired where it is delivered, so per-rank lists would drain on every
// one-way stream) and sized for a shard's worth of messages in flight.
const (
	RankListCap  = 16
	ShardListCap = 256
)

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
// (DESIGN.md §5.15). The zero value is an empty list capped at RankListCap.
//
// An owner whose records, list included, die with one run may lift the cap
// (Cap = math.MaxInt) and keep every record it retires: parsec's flow and
// step records are carved from per-run slabs, so its lists hold the run's
// in-flight peak until the run's state is dropped, and no record is paid for
// twice.
type FreeList[T any] struct {
	free []*T
	// Cap overrides RankListCap when positive.
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
	if PoisonRetired {
		return
	}
	limit := l.Cap
	if limit <= 0 {
		limit = RankListCap
	}
	if len(l.free) < limit {
		l.free = append(l.free, r)
	}
}

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
