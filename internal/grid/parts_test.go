package grid

import (
	"math/rand"
	"strings"
	"testing"
)

// partsFixture builds a grouped index with real duplicate structure
// (quantized attributes force multi-member groups), so the reassembly
// tests exercise every stored array.
func partsFixture(t *testing.T) (*Index, *GroupedIndex) {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	g := New(8, 100, 1)
	ix := NewPointIndex(g, randomPoints(rng, 120, 3, 100, 4))
	return ix, NewGrouped(ix)
}

// clone32 copies an int32 array so a test can corrupt one field without
// disturbing the fixture.
func clone32(s []int32) []int32 { return append([]int32(nil), s...) }

// TestGroupedFromPartsRoundTrip reassembles a grouped index from its
// own stored arrays, strict and non-strict, and checks the result is
// observably the same index.
func TestGroupedFromPartsRoundTrip(t *testing.T) {
	ix, want := partsFixture(t)
	for _, strict := range []bool{true, false} {
		got, err := GroupedFromParts(ix, want.Rows(), want.MemberOrder(), want.Offsets(),
			want.GroupMap(), want.Single(), strict)
		if err != nil {
			t.Fatalf("strict=%v: %v", strict, err)
		}
		if got.Groups() != want.Groups() || got.Count() != want.Count() || got.Dim() != want.Dim() {
			t.Fatalf("strict=%v: shape %d/%d/%d, want %d/%d/%d", strict,
				got.Groups(), got.Count(), got.Dim(), want.Groups(), want.Count(), want.Dim())
		}
		if !got.Canonical() {
			t.Errorf("strict=%v: reassembled index not canonical", strict)
		}
		for gid := 0; gid < got.Groups(); gid++ {
			if string(got.Row(gid)) != string(want.Row(gid)) {
				t.Fatalf("strict=%v: row %d diverges", strict, gid)
			}
		}
	}
}

// TestGroupedFromPartsRejects drives every validation branch: the O(1)
// shape checks that run at both trust levels, the strict content scans,
// and the strict cross-array verification. Each corruption is minimal —
// one field or one element — so a passing rejection pins that exact
// check.
func TestGroupedFromPartsRejects(t *testing.T) {
	ix, g := partsFixture(t)
	rows, members, offsets := g.Rows(), g.MemberOrder(), g.Offsets()
	groupOf, single := g.GroupMap(), g.Single()
	d := g.Dim()
	// A group with at least two members (guaranteed: 120 points in at
	// most 4³ quantized cells).
	multi := -1
	for gid := 0; gid < g.Groups(); gid++ {
		if offsets[gid+1]-offsets[gid] >= 2 {
			multi = gid
			break
		}
	}
	if multi < 0 {
		t.Fatal("fixture has no multi-member group")
	}

	try := func(rows []uint8, members, offsets, groupOf, single []int32) error {
		_, err := GroupedFromParts(ix, rows, members, offsets, groupOf, single, true)
		return err
	}
	cases := []struct {
		name string
		call func() error
	}{
		{"nil index", func() error {
			_, err := GroupedFromParts(nil, rows, members, offsets, groupOf, single, true)
			return err
		}},
		{"rows not multiple of dim", func() error {
			return try(rows[:len(rows)-1], members, offsets, groupOf, single)
		}},
		{"more groups than elements", func() error {
			return try(make([]uint8, (g.Count()+1)*d), members, offsets, groupOf, single)
		}},
		{"offsets length", func() error {
			return try(rows, members, offsets[:len(offsets)-1], groupOf, single)
		}},
		{"member order length", func() error {
			return try(rows, members[:len(members)-1], offsets, groupOf, single)
		}},
		{"singleton cache length", func() error {
			return try(rows, members, offsets, groupOf, single[:len(single)-1])
		}},
		{"offsets span", func() error {
			o := clone32(offsets)
			o[len(o)-1]++
			return try(rows, members, o, groupOf, single)
		}},
		{"offsets not increasing", func() error {
			o := clone32(offsets)
			o[1] = o[2] + 1 // makes group 1's member range negative
			return try(rows, members, o, groupOf, single)
		}},
		{"row cell out of grid", func() error {
			r := append([]uint8(nil), rows...)
			r[0] = uint8(ix.Grid().N())
			return try(r, members, offsets, groupOf, single)
		}},
		{"first-occurrence order", func() error {
			m := clone32(members)
			m[0], m[offsets[1]] = m[offsets[1]], m[0]
			return try(rows, m, offsets, groupOf, single)
		}},
		{"member out of range", func() error {
			m := clone32(members)
			m[len(m)-1] = int32(g.Count())
			return try(rows, m, offsets, groupOf, single)
		}},
		{"members not ascending", func() error {
			m := clone32(members)
			m[offsets[multi]+1] = m[offsets[multi]]
			return try(rows, m, offsets, groupOf, single)
		}},
		{"singleton cache wrong", func() error {
			s := clone32(single)
			if s[0] == -1 {
				s[0] = members[0]
			} else {
				s[0] = -1
			}
			return try(rows, members, offsets, groupOf, s)
		}},
		{"group map out of range", func() error {
			gm := clone32(groupOf)
			gm[0] = int32(g.Groups())
			return try(rows, members, offsets, gm, single)
		}},
		{"group map disagrees with blocks", func() error {
			gm := clone32(groupOf)
			gm[members[0]] = int32(g.Groups() - 1)
			if g.Groups() == 1 {
				t.Skip("needs two groups")
			}
			return try(rows, members, offsets, gm, single)
		}},
		{"row differs from first member's cells", func() error {
			r := append([]uint8(nil), rows...)
			r[0] ^= 1
			return try(r, members, offsets, groupOf, single)
		}},
	}
	for _, c := range cases {
		err := c.call()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.HasPrefix(err.Error(), "grid: ") {
			t.Errorf("%s: error %q not from the grid layer", c.name, err)
		}
	}
}

// TestGroupedFromPartsTrustedSkipsContent documents the mmap trade
// explicitly: a content corruption the strict path rejects assembles
// without error at the non-strict trust level (see GroupedFromParts).
func TestGroupedFromPartsTrustedSkipsContent(t *testing.T) {
	ix, g := partsFixture(t)
	gm := clone32(g.GroupMap())
	gm[0] = int32(g.Groups()) // out of range: strict rejects, trusted must not scan it
	if _, err := GroupedFromParts(ix, g.Rows(), g.MemberOrder(), g.Offsets(), gm, g.Single(), true); err == nil {
		t.Fatal("strict path accepted an out-of-range group map")
	}
	if _, err := GroupedFromParts(ix, g.Rows(), g.MemberOrder(), g.Offsets(), gm, g.Single(), false); err != nil {
		t.Fatalf("non-strict path rejected a content-level corruption it documents trusting: %v", err)
	}
}
