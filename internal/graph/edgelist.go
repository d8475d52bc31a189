package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"scale/internal/fault"
)

// MaxVertexID caps accepted vertex ids: the vertex count is max id + 1,
// and the graph is sized to it before the first edge is added, at about 12
// bytes per vertex, so a 15-byte line naming vertex 500000000 would
// allocate 6 GB. The cap allows 1<<20 vertices, serve's default
// per-request cap, which holds every Table II dataset (Reddit has
// 232,965); a larger id fails as bad input.
const MaxVertexID = 1<<20 - 1

// ParseEdgeList reads a whitespace-separated edge list ("src dst" per line,
// the SNAP/Graph500 text convention) and builds a graph. Lines starting with
// '#' or '%' are comments; blank lines are skipped; vertex ids may be any
// non-negative integers (the vertex count is max id + 1). Set undirected to
// insert both directions.
func ParseEdgeList(r io.Reader, name string, undirected bool) (*Graph, error) {
	type edge struct{ src, dst int }
	var edges []edge
	maxID := -1
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want \"src dst\", got %q: %w", lineNo, line, fault.ErrBadGraph)
		}
		src, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source %q: %w", lineNo, fields[0], fault.ErrBadGraph)
		}
		dst, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad destination %q: %w", lineNo, fields[1], fault.ErrBadGraph)
		}
		if src < 0 || dst < 0 {
			return nil, fmt.Errorf("graph: line %d: negative vertex id: %w", lineNo, fault.ErrBadGraph)
		}
		if src > MaxVertexID || dst > MaxVertexID {
			return nil, fmt.Errorf("graph: line %d: vertex id exceeds %d: %w", lineNo, MaxVertexID, fault.ErrBadGraph)
		}
		edges = append(edges, edge{src, dst})
		if src > maxID {
			maxID = src
		}
		if dst > maxID {
			maxID = dst
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %v: %w", err, fault.ErrBadGraph)
	}
	b := NewBuilder(maxID + 1)
	for _, e := range edges {
		if undirected {
			b.AddUndirected(e.src, e.dst)
		} else {
			b.AddEdge(e.src, e.dst)
		}
	}
	return b.Build(name), nil
}
