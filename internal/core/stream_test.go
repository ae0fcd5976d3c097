package core_test

import (
	"testing"

	"hyperq/internal/core"
	"hyperq/internal/wire/pgv3"
)

// cellSink records each delivered cell as NULL or its text.
type cellSink struct{ cells []core.Field }

func (s *cellSink) Schema([]core.BackendCol, int) error { return nil }

func (s *cellSink) WireBatch(b *pgv3.Batch) error {
	for i := range b.Rows() {
		for j := range b.Width() {
			c := b.Cell(i, j)
			s.cells = append(s.cells, core.Field{Null: c == nil, Text: string(c)})
		}
	}
	return nil
}

func (s *cellSink) Tag(string) {}

// TestReplayKeepsEmptyCells: ReplayResult hands an empty string on as an
// empty cell and a NULL as a nil one, also in rows before any cell has
// bytes.
func TestReplayKeepsEmptyCells(t *testing.T) {
	res := &core.BackendResult{
		Cols: []core.BackendCol{{Name: "a", SQLType: "varchar"}, {Name: "b", SQLType: "varchar"}},
		Rows: [][]core.Field{
			{{Text: ""}, {Null: true}},
			{{Null: true}, {Text: ""}},
			{{Text: "x"}, {Text: ""}},
		},
	}
	var s cellSink
	if err := core.ReplayResult(res, &s); err != nil {
		t.Fatal(err)
	}
	var want []core.Field
	for _, row := range res.Rows {
		want = append(want, row...)
	}
	if len(s.cells) != len(want) {
		t.Fatalf("got %d cells, want %d", len(s.cells), len(want))
	}
	for k, c := range s.cells {
		if c != want[k] {
			t.Errorf("cell %d = %+v, want %+v", k, c, want[k])
		}
	}
}
