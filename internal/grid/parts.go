package grid

// View constructors for the persist layer: a GRI3 file stores a
// GroupedIndex's arrays verbatim (unique rows, member order, offsets,
// element→group map, singleton cache), so loading
// is reassembly plus validation instead of an O(count) rebuild. All
// slices are adopted without copying — they may alias mapped memory and
// must not be modified afterward.

import "fmt"

// GroupedFromParts reassembles a GroupedIndex from its stored arrays.
//
// It always performs the O(1) shape checks — array lengths consistent
// with each other and with the index, offsets spanning exactly
// [0, Count()] — so a file of the wrong shape can never be assembled.
//
// With strict set it also validates the contents: offsets monotone,
// member ids within [0, Count()) and ascending within each group, group
// ids within [0, Groups()), row cells below the grid's partition count,
// first members strictly increasing across groups (canonical
// numbering), the singleton cache consistent, members a permutation of
// [0, Count()), groupOf in agreement with the member blocks, each
// group's row equal to the element cells of its first member. The heap
// load path uses strict. The mmap path does not: those passes
// touch every element and would dominate the load, so it trusts the
// file the way any mmap-served database does — a corrupted payload
// surfaces as a bounds-check panic or a wrong answer at query time,
// never as memory corruption (see LoadMmap).
func GroupedFromParts(ix *Index, rows []uint8, members, offsets, groupOf, single []int32, strict bool) (*GroupedIndex, error) {
	if ix == nil {
		return nil, fmt.Errorf("grid: grouped parts without an index")
	}
	d := ix.Dim()
	count := ix.Count()
	if len(rows) == 0 || len(rows)%d != 0 {
		return nil, fmt.Errorf("grid: grouped rows length %d not a positive multiple of dim %d", len(rows), d)
	}
	groups := len(rows) / d
	if groups > count {
		return nil, fmt.Errorf("grid: %d groups for %d elements", groups, count)
	}
	if len(offsets) != groups+1 {
		return nil, fmt.Errorf("grid: %d offsets for %d groups", len(offsets), groups)
	}
	if len(members) != count || len(groupOf) != count {
		return nil, fmt.Errorf("grid: member order %d / group map %d, want %d", len(members), len(groupOf), count)
	}
	if len(single) != groups {
		return nil, fmt.Errorf("grid: singleton cache %d, want %d", len(single), groups)
	}
	if offsets[0] != 0 || offsets[groups] != int32(count) {
		return nil, fmt.Errorf("grid: offsets span [%d, %d], want [0, %d]", offsets[0], offsets[groups], count)
	}
	if strict {
		n := ix.Grid().N()
		prevFirst := int32(-1)
		for g := 0; g < groups; g++ {
			lo, hi := offsets[g], offsets[g+1]
			if hi <= lo {
				return nil, fmt.Errorf("grid: group %d empty or offsets not increasing", g)
			}
			for _, c := range rows[g*d : (g+1)*d] {
				if int(c) >= n {
					return nil, fmt.Errorf("grid: group %d cell %d outside %d-partition grid", g, c, n)
				}
			}
			first := members[lo]
			if first <= prevFirst {
				return nil, fmt.Errorf("grid: group %d not in first-occurrence order", g)
			}
			prevFirst = first
			prev := int32(-1)
			for _, m := range members[lo:hi] {
				if m < 0 || m >= int32(count) {
					return nil, fmt.Errorf("grid: member %d outside [0, %d)", m, count)
				}
				if m <= prev {
					return nil, fmt.Errorf("grid: group %d members not ascending", g)
				}
				prev = m
			}
			want := int32(-1)
			if hi-lo == 1 {
				want = first
			}
			if single[g] != want {
				return nil, fmt.Errorf("grid: singleton cache of group %d is %d, want %d", g, single[g], want)
			}
		}
		for i, gid := range groupOf {
			if gid < 0 || gid >= int32(groups) {
				return nil, fmt.Errorf("grid: element %d mapped to group %d outside [0, %d)", i, gid, groups)
			}
		}
	}
	g := &GroupedIndex{
		ix:        ix,
		rows:      rows,
		members:   members,
		offsets:   offsets,
		groupOf:   groupOf,
		single:    single,
		canonical: true,
	}
	if strict {
		if err := g.verifyStrict(); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// verifyStrict cross-validates the redundant grouped arrays; see
// GroupedFromParts.
func (g *GroupedIndex) verifyStrict() error {
	count := g.Count()
	d := g.Dim()
	seen := make([]bool, count)
	for gid := 0; gid < g.Groups(); gid++ {
		lo, hi := g.offsets[gid], g.offsets[gid+1]
		row := g.rows[gid*d : (gid+1)*d]
		for _, m := range g.members[lo:hi] {
			if seen[m] {
				return fmt.Errorf("grid: element %d appears in two groups", m)
			}
			seen[m] = true
			if g.groupOf[m] != int32(gid) {
				return fmt.Errorf("grid: element %d in block of group %d but mapped to %d", m, gid, g.groupOf[m])
			}
		}
		first := g.members[lo]
		elemRow := g.ix.Row(int(first))
		for j := range row {
			if row[j] != elemRow[j] {
				return fmt.Errorf("grid: group %d row disagrees with element %d cells", gid, first)
			}
		}
	}
	return nil
}
