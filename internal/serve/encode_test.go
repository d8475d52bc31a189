package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"scale/internal/gnn"
	"scale/internal/graph"
	"scale/internal/shard"
	"scale/internal/tensor"
)

// inferResponse is the POST /v1/infer success payload as encoding/json
// writes it: the answer writeInfer must match byte for byte, and the type
// tests decode answers into.
type inferResponse struct {
	Model      string      `json:"model"`
	Precision  string      `json:"precision"`
	Embeddings [][]float32 `json:"embeddings"`
}

// float32Mismatches compares appendFloat32JSON with encoding/json on fs: the
// finite values must come out exactly as json.Marshal writes them inside one
// []float32, and each non-finite one, which encoding/json refuses, must be
// refused. It describes every value that differs.
func float32Mismatches(fs []float32) []string {
	var bad []string
	finite := make([]float32, 0, len(fs))
	for _, f := range fs {
		if !math.IsInf(float64(f), 0) && !math.IsNaN(float64(f)) {
			finite = append(finite, f)
		} else if got, ok := appendFloat32JSON(nil, f); ok {
			bad = append(bad, fmt.Sprintf("%#08x: wrote %q, want a refusal", math.Float32bits(f), got))
		}
	}
	want, err := json.Marshal(finite)
	if err != nil {
		return append(bad, err.Error())
	}
	got := []byte{'['}
	for i, f := range finite {
		if i > 0 {
			got = append(got, ',')
		}
		got, _ = appendFloat32JSON(got, f)
	}
	if got = append(got, ']'); bytes.Equal(got, want) {
		return bad
	}
	for i, w := range bytes.Split(want[1:len(want)-1], []byte{','}) {
		if g, _ := appendFloat32JSON(nil, finite[i]); !bytes.Equal(g, w) {
			bad = append(bad, fmt.Sprintf("%#08x (%v): wrote %q, encoding/json %q", math.Float32bits(finite[i]), finite[i], g, w))
		}
	}
	return bad
}

// checkFloat32Bits runs float32Mismatches over the n bit patterns bitsAt
// returns, in chunks spread over every CPU, reports the first mismatches
// and returns how many there were.
func checkFloat32Bits(t *testing.T, n int, bitsAt func(int) uint32) int {
	const chunk = 1 << 14
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		bad []string
		pos atomic.Int64
	)
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fs := make([]float32, 0, chunk)
			for {
				lo := int(pos.Add(chunk)) - chunk
				if lo >= n {
					return
				}
				fs = fs[:0]
				for i := lo; i < min(lo+chunk, n); i++ {
					fs = append(fs, math.Float32frombits(bitsAt(i)))
				}
				if m := float32Mismatches(fs); len(m) > 0 {
					mu.Lock()
					bad = append(bad, m...)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	for _, m := range bad[:min(len(bad), 10)] {
		t.Error(m)
	}
	return len(bad)
}

// TestAppendFloat32MatchesEncodingJSON holds the float32 encoder to
// encoding/json on both signs of every exponent, ±0, subnormals, ±Inf and
// NaNs included, with the 4,096 lowest and 4,096 highest mantissas of
// each; on 2^20 random bit patterns; on a stride of the integers below 2^24,
// each exact; and on the 4,096 neighbours either side of 1e-6 and 1e21,
// where the layout switches between 'f' and 'e' form.
func TestAppendFloat32MatchesEncodingJSON(t *testing.T) {
	var patterns []uint32
	for sign := uint32(0); sign < 2; sign++ {
		for exp := uint32(0); exp < 256; exp++ {
			for m := uint32(0); m < 4096; m++ {
				patterns = append(patterns, sign<<31|exp<<23|m, sign<<31|exp<<23|(1<<23-1-m))
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for range 1 << 20 {
		patterns = append(patterns, rng.Uint32())
	}
	for n := 0; n < 1<<24; n += 251 {
		patterns = append(patterns, math.Float32bits(float32(n)), math.Float32bits(-float32(n)))
	}
	for _, edge := range []float32{1e-6, 1e21} {
		for d := -4096; d <= 4096; d++ {
			fb := uint32(int(math.Float32bits(edge)) + d)
			patterns = append(patterns, fb, fb|1<<31)
		}
	}
	checkFloat32Bits(t, len(patterns), func(i int) uint32 { return patterns[i] })
}

// TestAppendFloat32Exhaustive checks every one of the 2^32 float32 bit
// patterns, several minutes on two CPUs, so it runs only with
// SCALE_EXHAUSTIVE_DECODE=1 set, beside the decoder's exhaustive check.
func TestAppendFloat32Exhaustive(t *testing.T) {
	if os.Getenv("SCALE_EXHAUSTIVE_DECODE") != "1" {
		t.Skip("set SCALE_EXHAUSTIVE_DECODE=1 to check every float32 bit pattern")
	}
	bad := checkFloat32Bits(t, 1<<32, func(i int) uint32 { return uint32(i) })
	t.Logf("%d bit patterns, %d mismatches", 1<<32, bad)
}

// FuzzAppendFloat32 holds the encoder to json.Marshal on any bit pattern:
// the same bytes, or both refuse a non-finite value.
func FuzzAppendFloat32(f *testing.F) {
	for _, v := range []float32{0, 1, -1, 0.1, 1e-6, 1e21, 3.4028235e38, 1e-45, 16777216, float32(math.Inf(1))} {
		f.Add(math.Float32bits(v))
	}
	f.Fuzz(func(t *testing.T, fb uint32) {
		v := math.Float32frombits(fb)
		want, err := json.Marshal(v)
		got, ok := appendFloat32JSON(nil, v)
		if ok != (err == nil) || ok && !bytes.Equal(got, want) {
			t.Fatalf("%#08x: wrote %q (ok %v), json.Marshal %q (err %v)", fb, got, ok, want, err)
		}
	})
}

// TestPow10TableMatchesBig regenerates pow10x64 with math/big: 10^q scaled
// by the power of two that puts it in [2^63, 2^64), rounded down for q ≥ 0
// and up for q < 0. The scale must be the one shortest32 assumes, 2^(63 -
// ⌊q·log2 10⌋), and the range must be the one float32's exponents reach.
func TestPow10TableMatchesBig(t *testing.T) {
	ten := big.NewInt(10)
	for i, got := range pow10x64 {
		q := i + pow10Min
		// 10^q = num/den; 10^q·2^s = (num·2^s)/den.
		num, den := big.NewInt(1), big.NewInt(1)
		var s int
		if q >= 0 {
			num.Exp(ten, big.NewInt(int64(q)), nil)
			s = 64 - num.BitLen()
		} else {
			den.Exp(ten, big.NewInt(int64(-q)), nil)
			s = 63 + den.BitLen()
		}
		if s >= 0 {
			num.Lsh(num, uint(s))
		} else {
			den.Lsh(den, uint(-s))
		}
		if want := 63 - (q*108853)>>15; s != want {
			t.Fatalf("10^%d: scale 2^%d, shortest32 assumes 2^%d", q, s, want)
		}
		want, rem := new(big.Int).QuoRem(num, den, new(big.Int))
		if q < 0 && rem.Sign() != 0 {
			want.Add(want, big.NewInt(1))
		}
		if want.BitLen() != 64 || want.Uint64() != got {
			t.Fatalf("10^%d: table %#016x, want %#x", q, got, want)
		}
	}
	if lo, hi := (-103*78913)>>18+1, (151*78913)>>18+1; lo != pow10Min || hi != pow10Min+len(pow10x64)-1 {
		t.Fatalf("float32 needs q in [%d, %d], table covers [%d, %d]", lo, hi, pow10Min, pow10Min+len(pow10x64)-1)
	}
}

// redditEmbeddings is the gcn output of the Reddit build at precision: 931
// rows of 41 values.
func redditEmbeddings(t testing.TB, precision string) [][]float32 {
	t.Helper()
	d := graph.MustByName("reddit")
	g := d.Build()
	sess, err := testSim(t).NewSessionPrecision("gcn", d.FeatureDims, precision)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sess.InferGraph(context.Background(), g, gnn.RandomFeatures(g, d.FeatureDims[0], 2), 1)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestInferResponseMatchesEncodingJSON requires writeInfer's whole answer to
// be the one json.Encoder writes for inferResponse: on the Reddit build's
// fp32 and int8 gcn outputs, on model strings encoding/json escapes, and
// on nil and empty rows.
func TestInferResponseMatchesEncodingJSON(t *testing.T) {
	fp32, int8 := redditEmbeddings(t, "fp32"), redditEmbeddings(t, "int8")
	small := [][]float32{{0, float32(math.Copysign(0, -1)), 1e-7, 1e21, 123456789, -0.1}, {}, nil}
	for _, tc := range []inferResponse{
		{Model: "gcn", Precision: "fp32", Embeddings: fp32},
		{Model: "gcn", Precision: "int8", Embeddings: int8},
		{Model: `<b>&"quoted"\</b>`, Precision: "fp32", Embeddings: small},
		{Model: "gcn\u00e9\u2028\u2029\x01\xff", Precision: "int8\t", Embeddings: small},
		{Model: "gin", Precision: "fp32", Embeddings: [][]float32{}},
		{Model: "gin", Precision: "fp32"},
	} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(tc); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		if err := writeInfer(rec, tc.Model, tc.Precision, tc.Embeddings); err != nil {
			t.Fatalf("%q: %v", tc.Model, err)
		}
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("%q: status %d, Content-Type %q", tc.Model, rec.Code, rec.Header().Get("Content-Type"))
		}
		if got := rec.Body.Bytes(); !bytes.Equal(got, want.Bytes()) {
			i := 0
			for i < min(len(got), want.Len()) && got[i] == want.Bytes()[i] {
				i++
			}
			t.Fatalf("%q: %d bytes against encoding/json's %d, first difference at byte %d: %q against %q",
				tc.Model, len(got), want.Len(), i, got[max(i-20, 0):min(i+20, len(got))], want.Bytes()[max(i-20, 0):min(i+20, want.Len())])
		}
	}
}

// TestWriteInferRefusesNonFinite requires a non-finite value to write
// nothing and to name its row.
func TestWriteInferRefusesNonFinite(t *testing.T) {
	for _, v := range []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())} {
		rec := httptest.NewRecorder()
		err := writeInfer(rec, "gcn", "fp32", [][]float32{{1, 2}, {3, v}})
		if !errors.Is(err, tensor.ErrNonFinite) || !bytes.Contains([]byte(err.Error()), []byte("row 1:")) {
			t.Fatalf("%v: error %v, want ErrNonFinite naming row 1", v, err)
		}
		if rec.Body.Len() != 0 || len(rec.Header()) != 0 {
			t.Fatalf("%v: wrote %q with headers %v before refusing", v, rec.Body.String(), rec.Header())
		}
	}
}

// TestInferNonFiniteOutputIsError posts features of 3e38, finite, whose fp32
// embeddings overflow to +Inf in gin, gcn and gs-mean, on the batched, the
// direct and the sharded route, at both precisions; on the int8 tier the
// overflow meets an update's activation quantization instead. Each must
// answer 500 with an httpapi.Error body of kind internal: never a 2xx with
// an empty body, and never a contained panic.
func TestInferNonFiniteOutputIsError(t *testing.T) {
	sim := testSim(t)
	pool, err := shard.NewPool(shard.PoolConfig{Workers: startShardWorkers(t, sim, 1)})
	if err != nil {
		t.Fatal(err)
	}
	local := newTestServer(t, Config{Sim: sim})
	sharded := newTestServer(t, Config{Sim: sim, ShardPool: pool})
	for _, model := range []string{"gin", "gcn", "gs-mean"} {
		for _, precision := range []string{"fp32", "int8"} {
			body := validInfer()
			body.Model = model
			body.Precision = precision
			for _, row := range body.Features {
				row[0], row[1] = 3e38, 3e38
			}
			direct := body
			direct.SampleFanout = 1
			for _, tc := range []struct {
				route string
				srv   *Server
				body  inferBody
			}{
				{"batched", local, body},
				{"direct", local, direct},
				{"sharded", sharded, body},
			} {
				rec := do(t, tc.srv, http.MethodPost, "/v1/infer", tc.body)
				if rec.Code != http.StatusInternalServerError {
					t.Fatalf("%s %s %s: status %d, body %q", model, precision, tc.route, rec.Code, rec.Body.String())
				}
				if e := decodeError(t, rec); e.Kind != "internal" || e.Error == "" {
					t.Fatalf("%s %s %s: error body %+v, want kind internal", model, precision, tc.route, e)
				}
			}
		}
	}
	if got := pool.Metrics().Requests.Load(); got != 6 {
		t.Fatalf("pool ran %d passes, want 6", got)
	}
}
