//go:build amd64

package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"scale/internal/gnn"
	"scale/internal/graph"
	"scale/internal/tensor"
)

// forwardDigest hashes every layer output of one executor pass: each
// matrix's shape, then its elements' float32 bits, little-endian.
func forwardDigest(tb testing.TB, m *gnn.Model, g *graph.Graph, x *tensor.Matrix) string {
	tb.Helper()
	outs, err := MustNew(DefaultConfig()).ForwardParallel(m, g, x, 1)
	if err != nil {
		tb.Fatal(err)
	}
	h := sha256.New()
	var buf []byte
	for _, out := range outs {
		buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(out.Rows))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(out.Cols))
		for _, v := range out.Data {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestForwardDigests pins the executor's outputs to SHA-256 digests taken
// before the fp32 row kernels were rewritten. The gnn reference and the
// executor share VecMatInto and ParallelMatMulInto, so a kernel that moved
// a rounding would move both sides of every "matches the reference" test;
// only fixed digests catch it. Every built-in model runs on both tiers over
// a seeded RMAT graph at dims [50, 41, 64, 7]: output panels of 32, 16, 8
// and 4 columns with 1-, 2- and 3-column tails, narrowing and widening
// layers, and ReLU-sparse inputs to every layer after the first. The Reddit
// build's gcn at [602, 64, 41] covers the shapes perfbench runs. amd64
// only: other architectures may fuse the layers' own multiply-adds. Under
// -race the kernels run their portable loops, which must give the same
// bits.
func TestForwardDigests(t *testing.T) {
	want := map[string]string{
		"gcn/fp32":        "0e30b3972770297aef3dd82896d8ff50e882aca4c095a2d89c0fedd03152b04d",
		"gcn/int8":        "23d737a7ad3985b2f3d5202d96310194f9ade8ee63c959fee75e75caf457e96a",
		"ggcn/fp32":       "b8bdc41463edf9976c24795cbe382b1901d1f88e2195d28e6b8283c886426f5b",
		"ggcn/int8":       "1b6142fa12f22a9807f3a901e6b9e95ec71dac7bcafaa9a6d36f8d52d9be3091",
		"gs-pl/fp32":      "ffb0e106e3c63531e18fdeeb6de9f036a254ab4c87b05395518a30f1013f866c",
		"gs-pl/int8":      "3e4fcce1b72d089eacc826cf08f544fcec4b5c2749f086fc5db87b5bc25a73c8",
		"gin/fp32":        "04da7543c907f1619431665578c149ed9d87e8999a52ebb9174b5ee0fb326f10",
		"gin/int8":        "47198ca7eb3b6a295616fbb29848c6a6af196b8915de25d10a359bd719a92f69",
		"gat/fp32":        "d1b2bd55333e92617e5dde144df8301465599d2e986580c22b05f72477d77d02",
		"gat/int8":        "a3464748f25e0a79270bbcfa0f24f99060897d094c645b8f122e22d4fec4e307",
		"gat-4h/fp32":     "3306f887edc9c70a320fe1fc9e7f4b21284d3ec96b776e7229cd0024a1bce5f2",
		"gat-4h/int8":     "5ca6eccdd8361975deb0645db255dd7ff4be81cf50ac1c1b130a15887e9b1416",
		"gs-mean/fp32":    "f1c2c46c51c068185119ea0ac2dcdbe72db8c89d1128b71bee0840f36991767d",
		"gs-mean/int8":    "a82297935136f885d73bd4d42922e9ec673c7c0c5c3563a30e4cd36429635a54",
		"reddit-gcn/fp32": "49c3fa29d40cf07da959e3d150cf89bdd29263bc49de46147c2fe9660121e435",
		"reddit-gcn/int8": "00193e090e53db2829c3b7d0288bc286bf9f27950887ff4fc14e6873031020fa",
	}
	got := map[string]string{}
	dims := []int{50, 41, 64, 7}
	g := graph.RMAT(9, 4000, 7)
	x := gnn.RandomFeatures(g, dims[0], 13)
	for _, name := range gnn.AllModelNames() {
		got[name+"/fp32"] = forwardDigest(t, gnn.MustModel(name, dims, 11), g, x)
		got[name+"/int8"] = forwardDigest(t, quantizedModel(t, name, dims, 11), g, x)
	}
	d := graph.MustByName("reddit")
	rg := d.Build()
	rx := gnn.RandomFeatures(rg, d.FeatureDims[0], 2)
	got["reddit-gcn/fp32"] = forwardDigest(t, gnn.MustModel("gcn", d.FeatureDims, 1), rg, rx)
	got["reddit-gcn/int8"] = forwardDigest(t, quantizedModel(t, "gcn", d.FeatureDims, 1), rg, rx)
	if len(got) != len(want) {
		t.Fatalf("%d digests, want %d", len(got), len(want))
	}
	for k, v := range got {
		if want[k] != v {
			t.Errorf("%s: digest %s, want %s", k, v, want[k])
		}
	}
}

// TestForwardDigestsTails is TestForwardDigests at dims [33, 25, 36, 3, 1],
// the widths whose row-list walks [50, 41, 64, 7] does not reach: a
// 32-column panel whose halves overlap (25), an exact 4-column panel (36
// after one whole panel) and the 1- and 3-column scalar tails. Its digests
// were computed on the same commit as TestForwardDigests'.
func TestForwardDigestsTails(t *testing.T) {
	want := map[string]string{
		"gcn/fp32":     "20e3db319c7fd3c92b2b564f4c29f32d7197b41b10c5069aea8c671a66bd3138",
		"gcn/int8":     "bc128c60f5b0c24da24537bd72adeb99e053e881cf82b1a5c6ab9fa1a3c52544",
		"ggcn/fp32":    "2f8277fc92cbd2cc95a1bb12b7c95c6be5d93223d8e8dcd199ee20f9e86a2a21",
		"ggcn/int8":    "dd6dcab09f6cc9b520e76421610848ef051217a720b70bef3729f8418ed182ec",
		"gs-pl/fp32":   "3cca628a998c7ed5232f685751499383cee5cb63e524080644504a31ca1b1886",
		"gs-pl/int8":   "521a8cd97dbca5faf3670babbd4196526981410b14c46531358dd9892c3de81d",
		"gin/fp32":     "4ee5e62369dc613731e813e0aaa706232ed68a002a1b181975d5e6be86cdaa22",
		"gin/int8":     "f9660534b4bb19e3d744f9c112b921669ffadde8f47f8fdcdab55e3d5ecae9fc",
		"gat/fp32":     "8f1867f0b4a46e9db8e02152d0ee3ac5952b41a52029224a5f1776f815a79822",
		"gat/int8":     "56c734c8d4aeedb5c2b9e06bd23c26c40799665dc73f742c6662812993e86bd8",
		"gat-4h/fp32":  "78e480700b7add72b4748669ef56f15bea271defd18b99c92326f754c2844347",
		"gat-4h/int8":  "798d699be2f69cbe28e0c4a05d5eec79cb8770c5ea56b4935195798a4383278f",
		"gs-mean/fp32": "2b512f7624e50aaa8daf68e756d198c1f39818dfb8bb55e349b48be6a9470387",
		"gs-mean/int8": "abb5bb59bab11128c8cbc5a83c59a0ac3460be28950a28eb874d9452f7df7981",
	}
	dims := []int{33, 25, 36, 3, 1}
	g := graph.RMAT(9, 4000, 7)
	x := gnn.RandomFeatures(g, dims[0], 13)
	for _, name := range gnn.AllModelNames() {
		for tier, m := range map[string]*gnn.Model{
			"fp32": gnn.MustModel(name, dims, 11),
			"int8": quantizedModel(t, name, dims, 11),
		} {
			if got := forwardDigest(t, m, g, x); got != want[name+"/"+tier] {
				t.Errorf("%s/%s: digest %s, want %s", name, tier, got, want[name+"/"+tier])
			}
		}
	}
}
