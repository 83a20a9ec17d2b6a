package dsm

import (
	"slices"
	"strings"
	"testing"
)

// TestDiffChain holds the chain's three operations to their bounds:
// after is (seq, upTo] exactly, dropThrough raises the floor whether or
// not it drops anything and never lowers it, and a request from below
// the floor panics instead of returning a window with a hole in it.
func TestDiffChain(t *testing.T) {
	seqs := func(es []chainEntry) []int32 {
		var out []int32
		for _, e := range es {
			out = append(out, e.seq)
		}
		return out
	}
	var ch diffChain
	for _, s := range []int32{2, 4, 4, 7, 9} { // two writers committed in interval 4
		ch.append(chainEntry{seq: s, wire: int(s) * 10})
	}
	if ch.bytes != 260 {
		t.Fatalf("bytes = %d after five appends, want 260", ch.bytes)
	}
	for _, tc := range []struct {
		seq, upTo int32
		want      []int32
	}{
		{0, 9, []int32{2, 4, 4, 7, 9}},
		{2, 9, []int32{4, 4, 7, 9}}, // the lower bound is exclusive
		{1, 9, []int32{2, 4, 4, 7, 9}},
		{4, 7, []int32{7}}, // the upper bound is inclusive
		{4, 6, nil},
		{3, 4, []int32{4, 4}},
		{9, 12, nil},
		{0, 1, nil},
	} {
		if got := seqs(ch.after(tc.seq, tc.upTo)); !slices.Equal(got, tc.want) {
			t.Errorf("after(%d, %d) = %v, want %v", tc.seq, tc.upTo, got, tc.want)
		}
	}
	if got := (*diffChain)(nil).after(0, 9); got != nil {
		t.Errorf("a nil chain returned %v", got)
	}

	if dropped := ch.dropThrough(4, nil); dropped != 100 || ch.floor != 4 || ch.bytes != 160 || !slices.Equal(seqs(ch.entries), []int32{7, 9}) {
		t.Fatalf("dropThrough(4) dropped %d bytes and left floor %d, bytes %d, entries %v", dropped, ch.floor, ch.bytes, seqs(ch.entries))
	}
	if dropped := ch.dropThrough(3, nil); dropped != 0 || ch.floor != 4 {
		t.Fatalf("dropThrough below the floor dropped %d bytes and left floor %d", dropped, ch.floor)
	}
	if dropped := ch.dropThrough(6, nil); dropped != 0 || ch.floor != 6 || len(ch.entries) != 2 {
		t.Fatalf("dropThrough(6), between entries, dropped %d bytes and left floor %d, %d entries", dropped, ch.floor, len(ch.entries))
	}
	if got := seqs(ch.after(6, 9)); !slices.Equal(got, []int32{7, 9}) {
		t.Errorf("after(6, 9) at the floor = %v, want [7 9]", got)
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "pruned through 6") {
			t.Fatalf("after(5, 9) below the floor: recovered %q, want the pruned-chain panic", msg)
		}
	}()
	ch.after(5, 9)
}
