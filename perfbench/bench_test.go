package main

import (
	"os"
	"reflect"
	"testing"

	"kwsc"
)

func TestOracleHandBuilt(t *testing.T) {
	o := newOracle()
	objs := map[int64]kwsc.Object{
		10: {Point: kwsc.Point{1, 1}, Doc: []kwsc.Keyword{1, 2, 3}},
		11: {Point: kwsc.Point{2, 2}, Doc: []kwsc.Keyword{1, 2}},
		12: {Point: kwsc.Point{3, 3}, Doc: []kwsc.Keyword{1}},
		13: {Point: kwsc.Point{2, 0}, Doc: []kwsc.Keyword{2, 1}},
		7:  {Point: kwsc.Point{5, 5}, Doc: []kwsc.Keyword{1, 2}},
	}
	for _, id := range []int64{10, 11, 12, 13, 7} { // out of id order
		o.add(id, objs[id])
	}
	all := shape{}
	box := shape{lo: []float64{1, 0}, hi: []float64{2, 2}} // closed: corners count
	ball := shape{center: []float64{2, 2}, radius: 1}      // (2,2) inside, (1,1) outside, (3,3) outside
	cases := []struct {
		name string
		s    shape
		ws   []kwsc.Keyword
		want []int64
	}{
		{"keywords only", all, []kwsc.Keyword{1, 2}, []int64{7, 10, 11, 13}},
		{"closed rectangle", box, []kwsc.Keyword{1, 2}, []int64{10, 11, 13}},
		{"closed ball boundary", shape{center: []float64{2, 1}, radius: 1}, []kwsc.Keyword{1, 2}, []int64{10, 11, 13}},
		{"ball", ball, []kwsc.Keyword{2, 1}, []int64{11}},
		{"three keywords", all, []kwsc.Keyword{1, 2, 3}, []int64{10}},
		{"absent keyword", all, []kwsc.Keyword{1, 9}, []int64{}},
	}
	for _, c := range cases {
		got := o.answer(c.s, c.ws)
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
	if !o.remove(11) || o.remove(11) {
		t.Fatal("remove of a live id must succeed once")
	}
	if got := o.answer(box, []kwsc.Keyword{1, 2}); !reflect.DeepEqual(got, []int64{10, 13}) {
		t.Errorf("after remove: got %v", got)
	}
	o.add(11, objs[11])
	if got := o.answer(box, []kwsc.Keyword{2, 1}); !reflect.DeepEqual(got, []int64{10, 11, 13}) {
		t.Errorf("after re-add: got %v", got)
	}
	if o.live() != 5 {
		t.Errorf("live %d, want 5", o.live())
	}
}

func TestChecks(t *testing.T) {
	want := []int64{2, 4, 6, 8}
	if err := checkExact([]int32{8, 2, 6, 4}, want); err != nil {
		t.Errorf("exact in any order: %v", err)
	}
	for _, bad := range [][]int32{{2, 4, 6}, {2, 4, 6, 9}, {2, 2, 6, 8}} {
		if checkExact(bad, want) == nil {
			t.Errorf("checkExact accepted %v", bad)
		}
	}
	good := []struct {
		got   []int64
		trunc bool
		limit int
	}{
		{[]int64{4, 8}, true, 2},
		{[]int64{2, 4, 6, 8}, false, 5},
		{[]int64{2, 4, 6, 8}, true, 4},
	}
	for _, g := range good {
		if err := checkLimited(g.got, g.trunc, want, g.limit); err != nil {
			t.Errorf("checkLimited(%v, %v, limit %d): %v", g.got, g.trunc, g.limit, err)
		}
	}
	bad := []struct {
		got   []int64
		trunc bool
		limit int
	}{
		{[]int64{4, 8}, false, 2},    // cut without truncated
		{[]int64{4}, true, 2},        // too few
		{[]int64{8, 4}, true, 2},     // not ascending
		{[]int64{4, 4}, true, 2},     // not distinct
		{[]int64{4, 5}, true, 2},     // not in the answer
		{[]int64{2, 4, 6}, true, 5},  // fewer than the whole answer
		{[]int64{2, 4, 6}, false, 3}, // cut without truncated
	}
	for _, b := range bad {
		if checkLimited(b.got, b.trunc, want, b.limit) == nil {
			t.Errorf("checkLimited accepted %v truncated=%v limit %d", b.got, b.trunc, b.limit)
		}
	}
}

// TestQuick runs every workload at a tiny size, traced, with every output
// check on.
func TestQuick(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	if err := runQuick(opts{seed: 7}, sp); err != nil {
		t.Fatal(err)
	}
}
