package roadnet

import "sort"

// SortCanonical sorts segment IDs into the paper's canonical table order:
// ascending by segment length, shortest first, with ties broken by ascending
// SegmentID so the order is total and both anonymizer and de-anonymizer
// derive the identical row/column assignment from the same segment set
// (Fig. 2: "in the order of segment length so that the shortest segments are
// mapped to the 1st row and 1st column").
func (g *Graph) SortCanonical(ids []SegmentID) {
	sort.Slice(ids, func(i, j int) bool {
		li, lj := g.SegmentLength(ids[i]), g.SegmentLength(ids[j])
		if li != lj {
			return li < lj
		}
		return ids[i] < ids[j]
	})
}
