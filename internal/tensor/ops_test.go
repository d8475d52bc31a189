package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// MatMul returns a·b by the plain ikj loop, one axpyRow pass per non-zero a
// element in ascending k: the reference the tests compare
// ParallelMatMulInto and the int8 GEMM against. Panics on inner-dimension
// mismatch.
func MatMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	checkMatMulShape(out, a, b)
	for i := 0; i < a.Rows; i++ {
		orow := out.Row(i)
		for k, av := range a.Row(i) {
			if av != 0 {
				axpyRow(orow, av, b.Row(k))
			}
		}
	}
	return out
}

// MatVecInto computes out = a·x, one Dot per row. out must have length
// a.Rows and x length a.Cols.
func MatVecInto(out []float32, a *Matrix, x []float32) {
	for i := range out {
		out[i] = Dot(a.Row(i), x)
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromRows([][]float32{{1, 2}, {3, 4}})
	b := FromRows([][]float32{{5, 6}, {7, 8}})
	got := MatMul(a, b)
	want := FromRows([][]float32{{19, 22}, {43, 50}})
	if !got.Equal(want) {
		t.Fatalf("MatMul = %v, want %v", got.Data, want.Data)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := RandomMatrix(rng, 5, 7, 1)
	id := NewMatrix(7, 7)
	for i := 0; i < 7; i++ {
		id.Set(i, i, 1)
	}
	if !MatMul(m, id).Equal(m) {
		t.Fatal("M·I != M")
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on inner-dimension mismatch")
		}
	}()
	MatMul(NewMatrix(2, 3), NewMatrix(4, 2))
}

func TestMatVecVecMatConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := RandomMatrix(rng, 6, 4, 1)
	x := RandomVector(rng, 4, 1)
	mv := make([]float32, a.Rows)
	MatVecInto(mv, a, x)
	vm := VecMat(x, a.T())
	for i := range mv {
		if math.Abs(float64(mv[i]-vm[i])) > 1e-5 {
			t.Fatalf("MatVec/VecMat disagree at %d: %v vs %v", i, mv[i], vm[i])
		}
	}
}

func TestVecMatMatchesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := RandomMatrix(rng, 5, 3, 1)
	x := RandomVector(rng, 5, 1)
	xm := FromRows([][]float32{x})
	want := MatMul(xm, w).Row(0)
	got := VecMat(x, w)
	for i := range want {
		if math.Abs(float64(want[i]-got[i])) > 1e-5 {
			t.Fatalf("VecMat mismatch at %d", i)
		}
	}
}

func TestDot(t *testing.T) {
	if Dot([]float32{1, 2, 3}, []float32{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
}

func TestAddScaleHadamardConcat(t *testing.T) {
	a, b := []float32{1, 2}, []float32{3, 4}
	x := []float32{1, -2}
	if s := Scale(3, x); s[0] != 3 || s[1] != -6 {
		t.Fatalf("Scale = %v", s)
	}
	c := make([]float32, 4)
	if ConcatInto(c, a, b); c[1] != 2 || c[2] != 3 {
		t.Fatalf("ConcatInto = %v", c)
	}
}

func TestMaxElems(t *testing.T) {
	acc := []float32{1, 5, -2}
	MaxElems(acc, []float32{3, 2, -1})
	if acc[0] != 3 || acc[1] != 5 || acc[2] != -1 {
		t.Fatalf("MaxElems = %v", acc)
	}
}

func TestActivations(t *testing.T) {
	x := []float32{-1, 0, 2}
	if r := ReLU(append([]float32(nil), x...)); r[0] != 0 || r[2] != 2 {
		t.Fatalf("ReLU = %v", r)
	}
}

func TestSumAndReLUMat(t *testing.T) {
	m := FromRows([][]float32{{-1, 2}})
	ReLU(m.Data)
	if m.At(0, 0) != 0 || m.At(0, 1) != 2 {
		t.Fatalf("ReLU(m.Data) = %v", m.Data)
	}
}

// Property: (A·B)·x == A·(B·x) within float tolerance — the associativity the
// functional simulator relies on when reordering chained products.
func TestMatMulAssociativityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, k, m := r.Intn(6)+1, r.Intn(6)+1, r.Intn(6)+1
		a := RandomMatrix(rng, n, k, 1)
		b := RandomMatrix(rng, k, m, 1)
		x := RandomVector(rng, m, 1)
		matVec := func(a *Matrix, x []float32) []float32 {
			out := make([]float32, a.Rows)
			MatVecInto(out, a, x)
			return out
		}
		lhs := matVec(MatMul(a, b), x)
		rhs := matVec(a, matVec(b, x))
		for i := range lhs {
			if math.Abs(float64(lhs[i]-rhs[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGlorotMagnitude(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := GlorotMatrix(rng, 64, 64)
	limit := float32(math.Sqrt(6.0 / 128.0))
	for _, v := range m.Data {
		if v < -limit || v > limit {
			t.Fatalf("Glorot entry %v outside ±%v", v, limit)
		}
	}
}

func TestRandomDeterminism(t *testing.T) {
	a := RandomMatrix(rand.New(rand.NewSource(9)), 4, 4, 1)
	b := RandomMatrix(rand.New(rand.NewSource(9)), 4, 4, 1)
	if !a.Equal(b) {
		t.Fatal("RandomMatrix must be deterministic per seed")
	}
}
