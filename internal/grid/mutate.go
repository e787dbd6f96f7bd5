package grid

// Copy-on-write derivation of the approximate-vector structures under
// point/weight insertion and deletion. Every With* method leaves its
// receiver untouched and returns a structure valid for the mutated data
// set, so an index can keep serving queries from the old epoch while a
// writer installs the next one.
//
// None of these paths re-approximate surviving vectors or re-hash rows
// into groups — the O(|P|·d) construction work of NewGrouped. What they
// do pay is flat byte/int copies of the ancillary arrays (cells, member
// permutation, offsets), which are plain memmoves: for an append the
// mutated group's member block is patched and the prefix-sum offsets
// after it incremented; for a removal element ids above the removed one
// shift down by one everywhere. See DESIGN.md §10 for the cost model.
//
// Group numbering: NewGrouped numbers groups by first occurrence in
// element order. A removal can change which element occurs first, so a
// derived grouping's group NUMBERING may drift from what a fresh build
// over the same data would produce. That is deliberate: numbering only
// fixes the scan's visit order, and query answers are proven
// order-independent (the parallel scan already visits in arbitrary
// chunk order) — the equivalence tests compare answers, which match a
// fresh rebuild exactly.

import (
	"bytes"
	"fmt"
)

// WithAppendedPoint derives an Index with the approximate vector of p
// appended. Every attribute of p must fall inside the grid's point
// range — callers detect range growth and rebuild instead.
func (ix *Index) WithAppendedPoint(p []float64) *Index {
	row := make([]uint8, ix.dim)
	ix.grid.ApproxPoint(p, row)
	return ix.withAppendedRow(row)
}

// WithAppendedWeight derives an Index with the approximate vector of w
// appended. Every component of w must fall inside the grid's weight
// range — callers detect range growth and rebuild instead.
func (ix *Index) WithAppendedWeight(w []float64) *Index {
	row := make([]uint8, ix.dim)
	ix.grid.ApproxWeight(w, row)
	return ix.withAppendedRow(row)
}

func (ix *Index) withAppendedRow(row []uint8) *Index {
	approx := make([]uint8, len(ix.approx)+ix.dim)
	copy(approx, ix.approx)
	copy(approx[len(ix.approx):], row)
	return &Index{grid: ix.grid, dim: ix.dim, approx: approx}
}

// WithRemoved derives an Index without element i; elements after i
// shift down by one.
func (ix *Index) WithRemoved(i int) *Index {
	if i < 0 || i >= ix.Count() {
		panic(fmt.Sprintf("grid: removed element %d out of range [0, %d)", i, ix.Count()))
	}
	approx := make([]uint8, len(ix.approx)-ix.dim)
	copy(approx, ix.approx[:i*ix.dim])
	copy(approx[i*ix.dim:], ix.approx[(i+1)*ix.dim:])
	return &Index{grid: ix.grid, dim: ix.dim, approx: approx}
}

// findGroup returns the group whose shared approximate vector equals
// row, or -1. A linear scan over the unique rows: O(Groups()·d) — the
// worst case (continuous data, every group a singleton) costs the same
// order as the member-array copy the derivation performs anyway, and it
// needs no auxiliary map to keep consistent across epochs.
func (g *GroupedIndex) findGroup(row []uint8) int {
	d := g.Dim()
	for gid := 0; gid*d < len(g.rows); gid++ {
		if bytes.Equal(g.rows[gid*d:(gid+1)*d], row) {
			return gid
		}
	}
	return -1
}

// WithAppended derives the grouping for nix, which must hold the
// receiver's elements plus one appended row (the new element's id is
// nix.Count()-1). If the row matches an existing group the new id joins
// that group's member block (it is the largest id, so the block stays
// ascending) and the offsets after the group increment; otherwise a new
// singleton group is appended, exactly where a fresh first-occurrence
// numbering would place it.
func (g *GroupedIndex) WithAppended(nix *Index) *GroupedIndex {
	count := nix.Count()
	if count != g.Count()+1 {
		panic(fmt.Sprintf("grid: WithAppended index has %d elements, want %d", count, g.Count()+1))
	}
	d := g.Dim()
	id := int32(count - 1)
	row := nix.Row(count - 1)
	// An append cannot disturb first-occurrence numbering (a new distinct
	// row is numbered last, exactly where a fresh build would put it), so
	// canonicality is inherited.
	ng := &GroupedIndex{ix: nix, canonical: g.canonical}
	gid := g.findGroup(row)
	if gid < 0 {
		// New distinct row: a fresh singleton group numbered last.
		nG := len(g.offsets) - 1
		ng.rows = append(append(make([]uint8, 0, len(g.rows)+d), g.rows...), row...)
		ng.offsets = append(append(make([]int32, 0, len(g.offsets)+1), g.offsets...), int32(count))
		ng.members = append(append(make([]int32, 0, count), g.members...), id)
		ng.groupOf = append(append(make([]int32, 0, count), g.groupOf...), int32(nG))
		ng.single = append(append(make([]int32, 0, nG+1), g.single...), id)
		return ng
	}
	// Existing group: splice the new id at the end of its member block.
	ng.rows = g.rows // unchanged, shared across epochs
	pos := int(g.offsets[gid+1])
	ng.members = make([]int32, count)
	copy(ng.members, g.members[:pos])
	ng.members[pos] = id
	copy(ng.members[pos+1:], g.members[pos:])
	ng.offsets = make([]int32, len(g.offsets))
	copy(ng.offsets, g.offsets)
	for k := gid + 1; k < len(ng.offsets); k++ {
		ng.offsets[k]++
	}
	ng.groupOf = append(append(make([]int32, 0, count), g.groupOf...), int32(gid))
	ng.single = make([]int32, len(g.single))
	copy(ng.single, g.single)
	ng.single[gid] = -1 // at least two members now
	return ng
}

// WithRemoved derives the grouping for nix, which must hold the
// receiver's elements minus element i (ids after i shifted down by
// one). The removed element leaves its group's member block; a group
// left empty is removed and the groups after it renumber down by one.
func (g *GroupedIndex) WithRemoved(nix *Index, i int) *GroupedIndex {
	count := nix.Count()
	if count != g.Count()-1 {
		panic(fmt.Sprintf("grid: WithRemoved index has %d elements, want %d", count, g.Count()-1))
	}
	d := g.Dim()
	gid := int(g.groupOf[i])
	emptied := g.Size(gid) == 1
	// Removals may change which element of a group occurs first, so the
	// derived numbering can drift from a fresh build's (see the package
	// comment); the grouping is conservatively marked non-canonical and
	// the persist layer renumbers at save time.
	ng := &GroupedIndex{ix: nix} // canonical: false
	// Member permutation: drop i, shift larger ids down. Group blocks
	// keep their order and stay ascending (the id map is monotone).
	ng.members = make([]int32, count)
	j := 0
	for _, id := range g.members {
		if id == int32(i) {
			continue
		}
		if id > int32(i) {
			id--
		}
		ng.members[j] = id
		j++
	}
	if emptied {
		nG := len(g.offsets) - 2 // groups after removal
		ng.rows = make([]uint8, 0, nG*d)
		ng.rows = append(ng.rows, g.rows[:gid*d]...)
		ng.rows = append(ng.rows, g.rows[(gid+1)*d:]...)
		ng.offsets = make([]int32, nG+1)
		copy(ng.offsets, g.offsets[:gid+1])
		for k := gid + 1; k < len(ng.offsets); k++ {
			ng.offsets[k] = g.offsets[k+1] - 1
		}
	} else {
		ng.rows = g.rows
		ng.offsets = make([]int32, len(g.offsets))
		copy(ng.offsets, g.offsets)
		for k := gid + 1; k < len(ng.offsets); k++ {
			ng.offsets[k]--
		}
	}
	// groupOf and the singleton cache follow mechanically from the new
	// (members, offsets): rebuilding them wholesale is one O(count) and
	// one O(groups) pass, simpler than patching ids in place.
	ng.groupOf = make([]int32, count)
	ng.single = make([]int32, len(ng.offsets)-1)
	for gg := 0; gg < len(ng.offsets)-1; gg++ {
		lo, hi := ng.offsets[gg], ng.offsets[gg+1]
		for _, id := range ng.members[lo:hi] {
			ng.groupOf[id] = int32(gg)
		}
		if hi-lo == 1 {
			ng.single[gg] = ng.members[lo]
		} else {
			ng.single[gg] = -1
		}
	}
	return ng
}
