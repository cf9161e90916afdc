package graphutil

import (
	"strings"
	"testing"
)

func TestNewPanicsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestAddEdgeRangeCheck(t *testing.T) {
	g := New(2)
	defer func() {
		if recover() == nil {
			t.Error("AddEdge out of range did not panic")
		}
	}()
	g.AddEdge(0, 2, 1, 0)
}

func TestTopoSort(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 0, 0)
	g.AddEdge(0, 2, 0, 0)
	g.AddEdge(1, 3, 0, 0)
	g.AddEdge(2, 3, 0, 0)
	order, ok := g.TopoSort()
	if !ok {
		t.Fatal("DAG reported cyclic")
	}
	pos := make([]int, 4)
	for i, v := range order {
		pos[v] = i
	}
	for _, e := range g.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Errorf("edge (%d,%d) violates topo order %v", e.From, e.To, order)
		}
	}
}

func TestTopoSortCycle(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 0, 0)
	g.AddEdge(1, 0, 0, 0)
	if _, ok := g.TopoSort(); ok {
		t.Error("cyclic graph reported as DAG")
	}
	if g.IsDAG() {
		t.Error("IsDAG true for cyclic graph")
	}
}

func TestWriteDOT(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 1, 0)
	var sb strings.Builder
	err := g.WriteDOT(&sb, DOTOptions{
		Name:      "test",
		NodeLabel: func(v int) string { return "ev" },
		EdgeAttr:  func(i int, e Edge) string { return "style=dashed" },
	})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph test", `label="ev"`, "n0 -> n1 [style=dashed]"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
	// Default options path.
	var sb2 strings.Builder
	if err := g.WriteDOT(&sb2, DOTOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb2.String(), "digraph G") {
		t.Error("default graph name not used")
	}
}
