package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/durable"
)

// Text edge-list format: one "u v" pair per line, whitespace separated,
// '#' and '%' introduce comment lines (SNAP and Konect conventions).
//
// Binary format (io2.go): a page-aligned header and section table
// followed by the two CSR directions; loading a binary graph is an
// order of magnitude faster than parsing text and is the format
// cmd/drgen emits by default.

// ReadEdgeList parses a text edge list from r. A vertex ID too large
// for a graph's vertex count is an error, not a panic.
func ReadEdgeList(r io.Reader) (*Digraph, error) {
	edges, n, err := ReadEdges(r)
	if err != nil {
		return nil, err
	}
	return FromEdgeStream(n, StreamOfEdges(edges))
}

// ReadEdges parses a text edge list and returns the raw edges plus the
// vertex count (max ID + 1).
func ReadEdges(r io.Reader) ([]Edge, int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []Edge
	maxID := VertexID(-1)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, 0, fmt.Errorf("graph: line %d: want \"u v\", got %q", line, text)
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, 0, fmt.Errorf("graph: line %d: bad source vertex: %w", line, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, 0, fmt.Errorf("graph: line %d: bad target vertex: %w", line, err)
		}
		if u < 0 || v < 0 {
			return nil, 0, fmt.Errorf("graph: line %d: negative vertex id", line)
		}
		e := Edge{U: VertexID(u), V: VertexID(v)}
		if e.U > maxID {
			maxID = e.U
		}
		if e.V > maxID {
			maxID = e.V
		}
		edges = append(edges, e)
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("graph: reading edge list: %w", err)
	}
	return edges, int(maxID) + 1, nil
}

// WriteEdgeList writes g as a text edge list.
func WriteEdgeList(w io.Writer, g *Digraph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# directed graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
	for u := VertexID(0); int(u) < g.NumVertices(); u++ {
		for _, v := range g.OutNeighbors(u) {
			fmt.Fprintf(bw, "%d %d\n", u, v)
		}
	}
	return bw.Flush()
}

// retiredMagic opened the first binary format ("DRLGRAPH": raw CSR
// arrays behind a three-word header), which nothing has written since
// SaveFile moved to v2. LoadFile refuses it by name.
const retiredMagic = uint64(0x44524c4752415048)

// chunkElems bounds single allocations while reading untrusted sizes.
const chunkElems = 1 << 16

func readInt64s(r io.Reader, count int) ([]int64, error) {
	out := make([]int64, 0, min(count, chunkElems))
	for len(out) < count {
		c := min(count-len(out), chunkElems)
		chunk := make([]int64, c)
		if err := binary.Read(r, binary.LittleEndian, chunk); err != nil {
			return nil, fmt.Errorf("graph: reading binary section: %w", err)
		}
		out = append(out, chunk...)
	}
	return out, nil
}

func readVertexIDs(r io.Reader, count int64) ([]VertexID, error) {
	out := make([]VertexID, 0, min(count, chunkElems))
	for int64(len(out)) < count {
		c := min(count-int64(len(out)), chunkElems)
		chunk := make([]VertexID, c)
		if err := binary.Read(r, binary.LittleEndian, chunk); err != nil {
			return nil, fmt.Errorf("graph: reading binary section: %w", err)
		}
		out = append(out, chunk...)
	}
	return out, nil
}

// LoadFile loads a graph from path, detecting the binary format by its
// magic number and falling back to the text edge-list parser.
func LoadFile(path string) (*Digraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	defer f.Close()
	var magic [8]byte
	_, serr := io.ReadFull(f, magic[:])
	if serr != nil && !errors.Is(serr, io.EOF) && !errors.Is(serr, io.ErrUnexpectedEOF) {
		// A real I/O failure (permissions, a directory, a dying disk)
		// is not "this is a text file": report it instead of letting
		// the text parser turn it into a confusing parse error.
		return nil, fmt.Errorf("graph: sniffing %s: %w", path, serr)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	if serr == nil {
		// Files shorter than 8 bytes cannot carry a magic number and
		// fall through to the text parser ("1 2" is a valid graph).
		switch binary.LittleEndian.Uint64(magic[:]) {
		case retiredMagic:
			return nil, fmt.Errorf("graph: %s is in the retired v1 binary format; re-save this graph with drgen", path)
		case binaryMagic2:
			return ReadBinary2(f)
		}
	}
	return ReadEdgeList(f)
}

// SaveFile writes g to path, replacing any file there atomically
// (durable.WriteFile); binaryFormat chooses the mmap-friendly binary
// layout over the text edge list.
func SaveFile(path string, g *Digraph, binaryFormat bool) error {
	write := func(w io.Writer) error { return WriteEdgeList(w, g) }
	if binaryFormat {
		write = func(w io.Writer) error { return WriteBinary2(w, g) }
	}
	return durable.WriteFile(path, write)
}
