package grid

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"gridrank/internal/vec"
)

// randPoints samples n d-dimensional points from a small catalog so
// many share grid cells (multi-member groups) while some are unique.
func randPoints(rng *rand.Rand, n, d int, rangeP float64) []vec.Vector {
	catalog := make([]vec.Vector, 1+rng.Intn(n)) // small → heavy grouping
	for i := range catalog {
		v := make(vec.Vector, d)
		for j := range v {
			v[j] = rng.Float64() * rangeP * 0.99
		}
		catalog[i] = v
	}
	out := make([]vec.Vector, n)
	for i := range out {
		out[i] = catalog[rng.Intn(len(catalog))]
	}
	return out
}

// checkGroupingInvariants verifies a GroupedIndex is internally
// consistent with its Index and equivalent (up to group numbering) to a
// fresh grouping of the same data.
func checkGroupingInvariants(t *testing.T, ix *Index, g *GroupedIndex) {
	t.Helper()
	count := ix.Count()
	if g.Count() != count {
		t.Fatalf("grouping holds %d elements, index %d", g.Count(), count)
	}
	seen := make([]bool, count)
	for gid := 0; gid < g.Groups(); gid++ {
		members := g.Members(gid)
		if len(members) == 0 {
			t.Fatalf("group %d is empty", gid)
		}
		want := g.Row(gid)
		prev := int32(-1)
		for _, id := range members {
			if id <= prev {
				t.Fatalf("group %d members not ascending: %v", gid, members)
			}
			prev = id
			if seen[id] {
				t.Fatalf("element %d appears in two groups", id)
			}
			seen[id] = true
			if !bytes.Equal(ix.Row(int(id)), want) {
				t.Fatalf("element %d row %v does not match its group %d row %v", id, ix.Row(int(id)), gid, want)
			}
			if g.GroupOf(int(id)) != int32(gid) {
				t.Fatalf("GroupOf(%d) = %d, want %d", id, g.GroupOf(int(id)), gid)
			}
		}
		if len(members) == 1 {
			if g.Single()[gid] != members[0] {
				t.Fatalf("single[%d] = %d, want %d", gid, g.Single()[gid], members[0])
			}
		} else if g.Single()[gid] != -1 {
			t.Fatalf("single[%d] = %d for a %d-member group", gid, g.Single()[gid], len(members))
		}
	}
	for id, ok := range seen {
		if !ok {
			t.Fatalf("element %d missing from every group", id)
		}
	}
	// Same partition as a fresh build: identical row→members mapping.
	fresh := NewGrouped(ix)
	if fresh.Groups() != g.Groups() {
		t.Fatalf("derived has %d groups, fresh build %d", g.Groups(), fresh.Groups())
	}
	fm := make(map[string]string, fresh.Groups())
	for gid := 0; gid < fresh.Groups(); gid++ {
		fm[string(fresh.Row(gid))] = fmt.Sprint(fresh.Members(gid))
	}
	for gid := 0; gid < g.Groups(); gid++ {
		if got := fmt.Sprint(g.Members(gid)); fm[string(g.Row(gid))] != got {
			t.Fatalf("group %v members %s, fresh build %s", g.Row(gid), got, fm[string(g.Row(gid))])
		}
	}
}

// TestGroupedMutations drives random insert/delete sequences through
// the derive API and checks every intermediate grouping against a fresh
// build of the same data.
func TestGroupedMutations(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		d := 2 + rng.Intn(4)
		const rangeP = 10.0
		g := New(8, rangeP, 1)
		points := randPoints(rng, 3+rng.Intn(20), d, rangeP)
		ix := NewPointIndex(g, points)
		grouped := NewGrouped(ix)
		for step := 0; step < 25; step++ {
			if len(points) > 1 && rng.Intn(3) == 0 {
				i := rng.Intn(len(points))
				points = append(points[:i:i], points[i+1:]...)
				ix2 := ix.WithRemoved(i)
				grouped = grouped.WithRemoved(ix2, i)
				ix = ix2
			} else {
				p := randPoints(rng, 1, d, rangeP)[0]
				points = append(points, p)
				ix2 := ix.WithAppendedPoint(p)
				grouped = grouped.WithAppended(ix2)
				ix = ix2
			}
			checkGroupingInvariants(t, ix, grouped)
		}
	}
}

// TestIndexDeriveMatchesFresh checks the derived cell store equals a
// fresh approximation of the mutated data, for points and weights.
func TestIndexDeriveMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := New(16, 5, 0.8)
	points := randPoints(rng, 12, 3, 5)
	ix := NewPointIndex(g, points)

	p := vec.Vector{1.5, 0.25, 4.9}
	derived := ix.WithAppendedPoint(p)
	fresh := NewPointIndex(g, append(append([]vec.Vector{}, points...), p))
	if !bytes.Equal(derived.Cells(), fresh.Cells()) {
		t.Fatalf("appended point cells differ:\n%v\n%v", derived.Cells(), fresh.Cells())
	}

	removed := derived.WithRemoved(4)
	data := append(append([]vec.Vector{}, points...), p)
	data = append(data[:4], data[5:]...)
	fresh = NewPointIndex(g, data)
	if !bytes.Equal(removed.Cells(), fresh.Cells()) {
		t.Fatalf("removed point cells differ:\n%v\n%v", removed.Cells(), fresh.Cells())
	}

	weights := []vec.Vector{{0.2, 0.3, 0.5}, {0.7, 0.2, 0.1}}
	wix := NewWeightIndex(g, weights)
	w := vec.Vector{0.1, 0.1, 0.8}
	wd := wix.WithAppendedWeight(w)
	wf := NewWeightIndex(g, append(append([]vec.Vector{}, weights...), w))
	if !bytes.Equal(wd.Cells(), wf.Cells()) {
		t.Fatalf("appended weight cells differ:\n%v\n%v", wd.Cells(), wf.Cells())
	}
}
