package roadnet

import (
	"container/heap"
	"fmt"
)

// pqItem is an entry in the Dijkstra priority queue.
type pqItem struct {
	junction JunctionID
	dist     float64
}

// pq implements heap.Interface over pqItem by distance.
type pq []pqItem

func (q pq) Len() int           { return len(q) }
func (q pq) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x any)        { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() any {
	old := *q
	n := len(old)
	item := old[n-1]
	*q = old[:n-1]
	return item
}

// ShortestPath returns the junction-to-junction shortest path as the ordered
// list of segments traversed, together with its total length in meters.
// A path from a junction to itself is empty with length 0.
func (g *Graph) ShortestPath(from, to JunctionID) ([]SegmentID, float64, error) {
	if !g.HasJunction(from) {
		return nil, 0, fmt.Errorf("junction %d: %w", from, ErrNotFound)
	}
	if !g.HasJunction(to) {
		return nil, 0, fmt.Errorf("junction %d: %w", to, ErrNotFound)
	}
	if from == to {
		return nil, 0, nil
	}

	const unvisited = -1.0
	dist := make([]float64, len(g.junctions))
	via := make([]SegmentID, len(g.junctions))
	for i := range dist {
		dist[i] = unvisited
		via[i] = InvalidSegment
	}

	q := pq{{junction: from, dist: 0}}
	settled := make([]bool, len(g.junctions))
	dist[from] = 0
	for q.Len() > 0 {
		item := heap.Pop(&q).(pqItem)
		j := item.junction
		if settled[j] {
			continue
		}
		settled[j] = true
		if j == to {
			break
		}
		for _, sid := range g.incident[j] {
			seg := g.segments[sid]
			next := seg.A
			if next == j {
				next = seg.B
			}
			if settled[next] {
				continue
			}
			nd := item.dist + seg.Length
			if dist[next] == unvisited || nd < dist[next] {
				dist[next] = nd
				via[next] = sid
				heap.Push(&q, pqItem{junction: next, dist: nd})
			}
		}
	}

	if !settled[to] {
		return nil, 0, fmt.Errorf("junction %d to %d: %w", from, to, ErrNoPath)
	}

	// Walk predecessors back from the target.
	var rev []SegmentID
	at := to
	for at != from {
		sid := via[at]
		rev = append(rev, sid)
		seg := g.segments[sid]
		if seg.A == at {
			at = seg.B
		} else {
			at = seg.A
		}
	}
	path := make([]SegmentID, len(rev))
	for i, sid := range rev {
		path[len(rev)-1-i] = sid
	}
	return path, dist[to], nil
}

// PathLength returns the summed length of the given segments.
func (g *Graph) PathLength(path []SegmentID) float64 {
	var total float64
	for _, sid := range path {
		total += g.SegmentLength(sid)
	}
	return total
}

// HopDistance returns the minimum number of segment-to-segment hops between
// two segments (0 when from == to), using breadth-first search over segment
// adjacency. It is the "network distance" used when ordering candidate
// segments by proximity in the RPLE pre-assignment.
func (g *Graph) HopDistance(from, to SegmentID) (int, error) {
	if !g.HasSegment(from) {
		return 0, fmt.Errorf("segment %d: %w", from, ErrNotFound)
	}
	if !g.HasSegment(to) {
		return 0, fmt.Errorf("segment %d: %w", to, ErrNotFound)
	}
	if from == to {
		return 0, nil
	}
	depth := make([]int, len(g.segments))
	for i := range depth {
		depth[i] = -1
	}
	depth[from] = 0
	queue := []SegmentID{from}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, nb := range g.neighbors[s] {
			if depth[nb] != -1 {
				continue
			}
			depth[nb] = depth[s] + 1
			if nb == to {
				return depth[nb], nil
			}
			queue = append(queue, nb)
		}
	}
	return 0, fmt.Errorf("segment %d to %d: %w", from, to, ErrNoPath)
}
