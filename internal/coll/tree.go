package coll

// TreeSplit computes the binomial multicast children of the first rank in
// ranks: it returns, for each child, the child-rooted slice of the subtree
// (child first). The list may be any ordered set of ranks — the runtime's
// dataflow multicast uses it with the sorted consumer set of one flow, so
// no single rank serves every consumer. internal/parsec delegates its tree
// construction here; collectives use the same shape through
// binomialParentChildren over dense rank intervals.
//
// The children are appended to the first argument (nil is fine): the runtime
// splits one tree per multicast flow and reuses the slice.
func TreeSplit(children [][]int32, ranks []int32) [][]int32 {
	// Binomial: repeatedly hand off the upper half of the remaining list.
	lo, hi := 0, len(ranks)
	for hi-lo > 1 {
		mid := lo + (hi-lo+1)/2
		children = append(children, ranks[mid:hi])
		hi = mid
	}
	return children
}
