package cloak

import (
	"fmt"
	"strings"

	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// TransitionTable materializes the RGE transition table of Fig. 2: rows are
// the current cloaking region CloakA, columns the candidate set CanA, both
// in canonical order (ascending segment length, shortest first), and the
// cell value at (i, j) — 1-based — is ((i-1)+(j-1)) mod |CanA|.
//
// Each transition value identifies one forward transition (row segment was
// the last added, column segment is added next) and simultaneously its
// backward counterpart (column segment was just removed, row segment is the
// previously added one). When |CloakA| <= |CanA| no value repeats within a
// row or column, so both lookups are unambiguous; the engine detects and
// avoids the remaining collision cases (see Engine).
//
// The hot paths use the closed-form lookups below; the materialized table
// exists for inspection, tests and the toolkit UIs.
type TransitionTable struct {
	Rows []roadnet.SegmentID // CloakA in canonical order
	Cols []roadnet.SegmentID // CanA in canonical order
}

// NewTransitionTable builds the table for the given region and candidate
// sets, canonically ordering both.
func NewTransitionTable(g *roadnet.Graph, cloakA, canA []roadnet.SegmentID) *TransitionTable {
	rows := append([]roadnet.SegmentID(nil), cloakA...)
	cols := append([]roadnet.SegmentID(nil), canA...)
	g.SortCanonical(rows)
	g.SortCanonical(cols)
	return &TransitionTable{Rows: rows, Cols: cols}
}

// Value returns the transition value of cell (i, j), 1-based.
func (t *TransitionTable) Value(i, j int) (int, error) {
	if i < 1 || i > len(t.Rows) || j < 1 || j > len(t.Cols) {
		return 0, fmt.Errorf("cloak: cell (%d,%d) outside %dx%d table",
			i, j, len(t.Rows), len(t.Cols))
	}
	return tableValue(i, j, len(t.Cols)), nil
}

// Forward resolves a forward transition: given the last added segment
// (a row) and the pick value, it returns the next segment (a column).
func (t *TransitionTable) Forward(lastAdded roadnet.SegmentID, pick int) (roadnet.SegmentID, error) {
	i := indexOf(t.Rows, lastAdded)
	if i < 0 {
		return roadnet.InvalidSegment,
			fmt.Errorf("cloak: segment %d is not a table row", lastAdded)
	}
	if len(t.Cols) == 0 {
		return roadnet.InvalidSegment, fmt.Errorf("cloak: empty candidate set")
	}
	j := forwardColumn(i+1, pick, len(t.Cols))
	return t.Cols[j-1], nil
}

// Backward resolves a backward transition: given the removed segment (a
// column) and the pick value, it returns every row whose cell in that
// column carries the pick value — the candidate "previously added"
// segments. With |Rows| <= |Cols| the result has at most one element.
func (t *TransitionTable) Backward(removed roadnet.SegmentID, pick int) ([]roadnet.SegmentID, error) {
	j := indexOf(t.Cols, removed)
	if j < 0 {
		return nil, fmt.Errorf("cloak: segment %d is not a table column", removed)
	}
	if len(t.Cols) == 0 {
		return nil, fmt.Errorf("cloak: empty candidate set")
	}
	var out []roadnet.SegmentID
	for _, i := range backwardRowIndices(j+1, pick, len(t.Rows), len(t.Cols)) {
		out = append(out, t.Rows[i-1])
	}
	return out, nil
}

// String renders the table like Fig. 2, for the toolkit UIs.
func (t *TransitionTable) String() string {
	var b strings.Builder
	b.WriteString("        ")
	for _, c := range t.Cols {
		fmt.Fprintf(&b, "%6s", fmt.Sprintf("s%d", c))
	}
	b.WriteByte('\n')
	for i, r := range t.Rows {
		fmt.Fprintf(&b, "%6s |", fmt.Sprintf("s%d", r))
		for j := range t.Cols {
			fmt.Fprintf(&b, "%6d", tableValue(i+1, j+1, len(t.Cols)))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// tableValue is the paper's cell formula for 1-based (i, j):
// ((i-1)+(j-1)) mod nCols.
func tableValue(i, j, nCols int) int {
	return ((i - 1) + (j - 1)) % nCols
}

// forwardColumn returns the unique 1-based column j in row i whose value is
// pick: j-1 = (pick - (i-1)) mod nCols.
func forwardColumn(i, pick, nCols int) int {
	j := (pick - (i - 1)) % nCols
	if j < 0 {
		j += nCols
	}
	return j + 1
}

// backwardFirstRow returns the smallest 1-based row index i whose cell in
// column j is pick: i-1 ≡ (pick - (j-1)) mod nCols. Every further match
// lies nCols rows on; when nRows > nCols the residue class hits several
// rows — the collision case of the paper.
func backwardFirstRow(j, pick, nCols int) int {
	r := (pick - (j - 1)) % nCols
	if r < 0 {
		r += nCols
	}
	return r + 1
}

// backwardRowIndices returns every 1-based row index i (up to nRows) whose
// cell in column j is pick.
func backwardRowIndices(j, pick, nRows, nCols int) []int {
	var out []int
	for i := backwardFirstRow(j, pick, nCols); i <= nRows; i += nCols {
		out = append(out, i)
	}
	return out
}

// indexOf returns the position of id in ids, or -1.
func indexOf(ids []roadnet.SegmentID, id roadnet.SegmentID) int {
	for i, v := range ids {
		if v == id {
			return i
		}
	}
	return -1
}
