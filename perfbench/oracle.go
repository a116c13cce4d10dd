package main

import (
	"fmt"
	"sort"

	"kwsc"
)

// oracle is the benchmark's reference answer: per-keyword ascending id
// lists of the live objects, intersected by a merge, then filtered by the
// closed region. It shares no code with the program's indexes, so a fault
// there cannot hide by being reproduced here.
type oracle struct {
	lists map[kwsc.Keyword][]int64
	objs  map[int64]kwsc.Object
	// Intersection scratch, reused so that checking adds little garbage to
	// the heap the measured program shares.
	scratch [2][]int64
}

func newOracle() *oracle {
	return &oracle{lists: map[kwsc.Keyword][]int64{}, objs: map[int64]kwsc.Object{}}
}

// add records a live object under id; adding a live id again is a bug in
// the workload.
func (o *oracle) add(id int64, obj kwsc.Object) {
	if _, ok := o.objs[id]; ok {
		panic(fmt.Sprintf("oracle: id %d added twice", id))
	}
	o.objs[id] = obj
	for _, w := range obj.Doc {
		l := o.lists[w]
		i := sort.Search(len(l), func(i int) bool { return l[i] >= id })
		l = append(l, 0)
		copy(l[i+1:], l[i:])
		l[i] = id
		o.lists[w] = l
	}
}

// remove drops a live object and reports whether it was live.
func (o *oracle) remove(id int64) bool {
	obj, ok := o.objs[id]
	if !ok {
		return false
	}
	delete(o.objs, id)
	for _, w := range obj.Doc {
		l := o.lists[w]
		i := sort.Search(len(l), func(i int) bool { return l[i] >= id })
		o.lists[w] = append(l[:i], l[i+1:]...)
	}
	return true
}

func (o *oracle) live() int { return len(o.objs) }

// answer returns the ascending ids of live objects inside s whose documents
// hold every keyword of ws.
func (o *oracle) answer(s shape, ws []kwsc.Keyword) []int64 {
	if len(ws) == 0 {
		return nil
	}
	acc := o.lists[ws[0]]
	for i, w := range ws[1:] {
		o.scratch[i%2] = intersectInto(o.scratch[i%2][:0], acc, o.lists[w])
		acc = o.scratch[i%2]
	}
	var out []int64
	for _, id := range acc {
		if s.contains(o.objs[id].Point) {
			out = append(out, id)
		}
	}
	return out
}

// intersectInto appends the ids common to the ascending lists a and b to
// dst, which must not share memory with a or b.
func intersectInto(dst, a, b []int64) []int64 {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// checkExact reports a mismatch between got (any order) and the ascending
// reference want.
func checkExact[T int32 | int64](got []T, want []int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d ids, want %d", len(got), len(want))
	}
	ascending := true
	for i := 1; i < len(got) && ascending; i++ {
		ascending = got[i] > got[i-1]
	}
	if ascending {
		for i, v := range got {
			if int64(v) != want[i] {
				return fmt.Errorf("id %d at rank %d, want %d", v, i, want[i])
			}
		}
		return nil
	}
	s := make([]int64, len(got))
	for i, v := range got {
		s[i] = int64(v)
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	for i := range s {
		if s[i] != want[i] {
			return fmt.Errorf("id %d at rank %d, want %d", s[i], i, want[i])
		}
	}
	return nil
}

// checkLimited checks a limit-capped answer: min(limit, |want|) distinct
// ascending ids drawn from want, with truncated set when ids were cut.
func checkLimited(got []int64, truncated bool, want []int64, limit int) error {
	n := min(limit, len(want))
	if len(got) != n {
		return fmt.Errorf("got %d ids under limit %d, want %d", len(got), limit, n)
	}
	if len(want) > limit && !truncated {
		return fmt.Errorf("%d of %d ids returned without truncated", len(got), len(want))
	}
	for i, id := range got {
		if i > 0 && id <= got[i-1] {
			return fmt.Errorf("ids not strictly ascending at rank %d", i)
		}
		j := sort.Search(len(want), func(j int) bool { return want[j] >= id })
		if j == len(want) || want[j] != id {
			return fmt.Errorf("id %d is not in the answer", id)
		}
	}
	return nil
}
