package trace

import "sort"

// Source is a pull-based arrival sequence: Next returns requests in
// non-decreasing arrival order until it reports false. *Stream is the
// generated source; Replay adapts a materialised trace.
type Source interface {
	Next() (Request, bool)
}

var _ Source = (*Stream)(nil)

// replay is the Source over a materialised, arrival-sorted trace.
type replay struct {
	reqs []Request
	next int
}

// Replay returns a Source over reqs in arrival order. A sorted slice is
// read in place; an unsorted one is stably sorted into a private copy,
// so requests sharing an arrival keep their slice order and the
// caller's slice is never modified.
func Replay(reqs []Request) Source {
	if !sort.SliceIsSorted(reqs, func(i, j int) bool { return reqs[i].Arrival < reqs[j].Arrival }) {
		sorted := append([]Request(nil), reqs...)
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Arrival < sorted[j].Arrival })
		reqs = sorted
	}
	return &replay{reqs: reqs}
}

// Next implements Source.
func (r *replay) Next() (Request, bool) {
	if r.next >= len(r.reqs) {
		return Request{}, false
	}
	req := r.reqs[r.next]
	r.next++
	return req, true
}
