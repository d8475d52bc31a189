package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("unexpected shape: %v len=%d", m, len(m.Data))
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("element %d not zero: %v", i, v)
		}
	}
}

func TestNewMatrixNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dims")
		}
	}()
	NewMatrix(-1, 2)
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float32{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("shape: %v", m)
	}
	if m.At(2, 1) != 6 || m.At(0, 0) != 1 {
		t.Fatalf("contents wrong: %v", m.Data)
	}
}

func TestFromRowsEmpty(t *testing.T) {
	m := FromRows(nil)
	if m.Rows != 0 || m.Cols != 0 {
		t.Fatalf("expected 0x0, got %v", m)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	FromRows([][]float32{{1, 2}, {3}})
}

func TestRowSetAt(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatalf("At after Set: %v", m.At(1, 2))
	}
	row := m.Row(1)
	row[0] = 9 // Row must be a mutable view.
	if m.At(1, 0) != 9 {
		t.Fatal("Row is not a view into the matrix")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := FromRows([][]float32{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares backing storage")
	}
	if !m.Equal(m.Clone()) {
		t.Fatal("Clone not equal to original")
	}
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float32{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose shape: %v", tr)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(r, c uint8) bool {
		m := RandomMatrix(rng, int(r%16)+1, int(c%16)+1, 1)
		return m.T().T().Equal(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEqualAndAllClose(t *testing.T) {
	a := FromRows([][]float32{{1, 2}})
	b := FromRows([][]float32{{1, 2.00001}})
	if a.Equal(b) {
		t.Fatal("Equal should be exact")
	}
	if !a.AllClose(b, 1e-5, 1e-5) {
		t.Fatal("AllClose should tolerate tiny differences")
	}
	c := NewMatrix(2, 1)
	if a.Equal(c) || a.AllClose(c, 1, 1) {
		t.Fatal("shape mismatch must not compare equal")
	}
	negZero := float32(math.Copysign(0, -1))
	if FromRows([][]float32{{0}}).Equal(FromRows([][]float32{{negZero}})) {
		t.Fatal("Equal compares bits: +0 and -0 must differ")
	}
	nan := math.Float32frombits(0x7fc00001)
	if !FromRows([][]float32{{nan}}).Equal(FromRows([][]float32{{nan}})) {
		t.Fatal("Equal compares bits: a NaN must equal the same NaN")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := FromRows([][]float32{{1, 5}})
	b := FromRows([][]float32{{2, 3}})
	if d := a.MaxAbsDiff(b); d != 2 {
		t.Fatalf("MaxAbsDiff = %v, want 2", d)
	}
}

// Fill sets all elements to v.
func (m *Matrix) Fill(v float32) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Zero resets all elements to 0.
func (m *Matrix) Zero() { m.Fill(0) }

func TestZeroAndFill(t *testing.T) {
	m := FromRows([][]float32{{1, 2}, {3, 4}})
	m.Zero()
	for _, v := range m.Data {
		if v != 0 {
			t.Fatalf("Zero: %v", m.Data)
		}
	}
}

// RowViews hands out rows without copying them, each capped at its own end.
func TestRowViews(t *testing.T) {
	m := FromRows([][]float32{{1, 2}, {3, 4}, {5, 6}, {7, 8}})
	rows := m.RowViews(1, 3)
	if len(rows) != 2 || rows[0][0] != 3 || rows[1][1] != 6 {
		t.Fatalf("views %v, want rows 1 and 2 of %v", rows, m.Data)
	}
	rows[0][1] = 40
	if m.At(1, 1) != 40 {
		t.Fatal("a view does not share the matrix's backing array")
	}
	for i, r := range rows {
		if cap(r) != m.Cols {
			t.Fatalf("view %d has cap %d, want %d", i, cap(r), m.Cols)
		}
	}
	_ = append(rows[1], 9)
	if m.At(3, 0) != 7 {
		t.Fatal("appending to the last view overwrote the row after it")
	}
}
