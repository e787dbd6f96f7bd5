package grid

// Cell grouping: the Grid-index's whole premise (Section 3) is that many
// vectors collapse onto few grid cells — two points with identical
// approximate vectors P^(A) receive identical (lower, upper) bounds
// against every weight, so the bound evaluation, and the Case-1/Case-2
// classification it drives, can be computed once per DISTINCT row and
// shared by every member. GroupedIndex materializes that sharing at index
// build time: the unique rows, each row's member list, and a reverse
// element→group map. It is built once per Index and reused by every
// query.

// GroupedIndex partitions the elements of an Index into groups of
// identical approximate vectors. Groups are numbered by first occurrence
// (the group of the smallest member index comes first) and each group's
// member list is ascending, so iteration order is deterministic.
type GroupedIndex struct {
	ix *Index
	// rows holds the unique approximate vectors, Groups()×Dim() cells.
	rows []uint8
	// members lists element ids group by group; offsets[g]:offsets[g+1]
	// brackets group g. Concatenated, members is a permutation of
	// [0, Count()) — the scan algorithms use it directly as a
	// cell-sorted visit order.
	members []int32
	offsets []int32
	// groupOf maps an element id to its group id.
	groupOf []int32
	// single caches singleton groups: single[g] is the lone member of
	// group g, or -1 when the group has several members. Continuous data
	// produces almost exclusively singletons, and the one-load fast path
	// keeps the grouped scan from paying member-list indirection there.
	single []int32
	// canonical records that group numbering still matches what
	// NewGrouped would produce over the same elements (first-occurrence
	// order). Fresh builds are canonical and appends preserve it; removals
	// may renumber (see mutate.go) and clear it. The persist layer uses
	// the flag to decide whether a grouping can be written as-is: GRI3
	// stores groupings verbatim, and byte-identical saves of mutated vs
	// freshly-built indexes require canonical numbering on disk.
	canonical bool
}

// NewGrouped groups the elements of ix by identical approximate vector.
func NewGrouped(ix *Index) *GroupedIndex {
	count := ix.Count()
	g := &GroupedIndex{
		ix:        ix,
		members:   make([]int32, count),
		groupOf:   make([]int32, count),
		canonical: true,
	}
	seen := make(map[string]int32, count)
	sizes := make([]int32, 0, 64)
	for i := 0; i < count; i++ {
		row := ix.Row(i)
		gid, ok := seen[string(row)]
		if !ok {
			gid = int32(len(sizes))
			seen[string(row)] = gid
			sizes = append(sizes, 0)
			g.rows = append(g.rows, row...)
		}
		sizes[gid]++
		g.groupOf[i] = gid
	}
	// Prefix-sum the sizes into offsets, then fill each group's member
	// list in ascending element order.
	g.offsets = make([]int32, len(sizes)+1)
	for gid, n := range sizes {
		g.offsets[gid+1] = g.offsets[gid] + n
	}
	next := make([]int32, len(sizes))
	copy(next, g.offsets[:len(sizes)])
	for i := 0; i < count; i++ {
		gid := g.groupOf[i]
		g.members[next[gid]] = int32(i)
		next[gid]++
	}
	g.single = make([]int32, len(sizes))
	for gid, n := range sizes {
		if n == 1 {
			g.single[gid] = g.members[g.offsets[gid]]
		} else {
			g.single[gid] = -1
		}
	}
	return g
}

// Groups returns the number of distinct approximate vectors.
func (g *GroupedIndex) Groups() int { return len(g.offsets) - 1 }

// Count returns the number of grouped elements.
func (g *GroupedIndex) Count() int { return len(g.members) }

// Dim returns the dimensionality.
func (g *GroupedIndex) Dim() int { return g.ix.Dim() }

// Row returns the approximate vector shared by group gid. The slice
// aliases the grouped storage and must not be modified.
func (g *GroupedIndex) Row(gid int) []uint8 {
	d := g.ix.Dim()
	return g.rows[gid*d : (gid+1)*d]
}

// Rows returns the flat unique-row store (Groups()·Dim() bytes,
// row-major), for hot loops that slice it directly. Not to be modified.
func (g *GroupedIndex) Rows() []uint8 { return g.rows }

// Members returns the ascending element ids of group gid (not to be
// modified).
func (g *GroupedIndex) Members(gid int) []int32 {
	return g.members[g.offsets[gid]:g.offsets[gid+1]]
}

// MemberOrder returns the concatenated member lists — a permutation of
// [0, Count()) in which elements of a group are adjacent. Scanning in
// this order maximizes reuse of any per-group state. Not to be modified.
func (g *GroupedIndex) MemberOrder() []int32 { return g.members }

// Offsets returns the group boundaries into MemberOrder(): group gid
// spans [Offsets()[gid], Offsets()[gid+1]). Not to be modified.
func (g *GroupedIndex) Offsets() []int32 { return g.offsets }

// GroupOf returns the group id of element i.
func (g *GroupedIndex) GroupOf(i int) int32 { return g.groupOf[i] }

// GroupMap returns the full element→group mapping (Count() entries). The
// slice is the grouping's own storage and must not be modified.
func (g *GroupedIndex) GroupMap() []int32 { return g.groupOf }

// Single returns the singleton cache: Single()[g] is group g's lone
// member, or -1 when the group has several. Not to be modified.
func (g *GroupedIndex) Single() []int32 { return g.single }

// Size returns the member count of group gid.
func (g *GroupedIndex) Size(gid int) int {
	return int(g.offsets[gid+1] - g.offsets[gid])
}

// Canonical reports whether group numbering matches a fresh NewGrouped
// build over the same elements.
func (g *GroupedIndex) Canonical() bool { return g.canonical }
