//go:build amd64

package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
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

// hubGraph is a 700-vertex graph whose vertex 0 has in-degree 650 and
// vertex 1 in-degree 300, so their int8 chains cross the 16-bit lane
// widening after 256 and 512 rows; every other vertex reads a short
// seeded list.
func hubGraph() *graph.Graph {
	const n = 700
	rng := rand.New(rand.NewSource(17))
	b := graph.NewBuilder(n)
	for u := 50; u < n; u++ {
		b.AddEdge(u, 0)
	}
	for u := 2; u < 302; u++ {
		b.AddEdge(u, 1)
	}
	for v := 2; v < n; v++ {
		for k := rng.Intn(9); k > 0; k-- {
			b.AddEdge(rng.Intn(n), v)
		}
	}
	return b.Build("hubs")
}

// TestForwardDigestsCascade is TestForwardDigests at dims [117, 90, 75,
// 7, 2], the widths of the int8 panel cascade the other two tests miss:
// reduce-chain strides above 64 with each narrower walk after the 64-column
// ones (120, 96, 80), GEMV outputs above 64 (90, 75, and gs-pl's 117-wide
// pool) and odd input widths, whose last weight pair is padded. The RMAT
// graph runs short chains; hubGraph's two hubs run chains of 650 and 300
// rows at every stride. Layers after the first read ReLU'd inputs, so
// all-zero input pairs occur. Its digests were computed before the int8
// kernels were rewritten.
func TestForwardDigestsCascade(t *testing.T) {
	want := map[string]string{
		"hubs/gat-4h/fp32":  "c8d48f698ee07b1f1d5af3e089ecfdeea5165c1a5ec7bfc8fe5f1dbdc4458cac",
		"hubs/gat-4h/int8":  "b9cf8ca268c6eef967ea5b8ae32188c2a90b95d53c8bc44ed03c51778bc2e0c3",
		"hubs/gat/fp32":     "963e5cc36dfccf2ba5c0a2f023aa6f8d4ca3562ef10b0d60b39ee15813f64527",
		"hubs/gat/int8":     "a2b143de2c55e4e319887a6bc335299920371249bcb730bce366c169bd276cf1",
		"hubs/gcn/fp32":     "dc61028fec424716aa9ad81eb826237db13077bc093363fbf20afa0632588df9",
		"hubs/gcn/int8":     "8d4ac1ec37e18620805fc6614fd9c2dc94741274f8abc1f707fc548100ad1f4a",
		"hubs/ggcn/fp32":    "99d347805a1f4b34e47030d79dffe90694bdbd3035149282bd102ed8c758b9b4",
		"hubs/ggcn/int8":    "a619e6e34cfc4bd4f4c3db57ddce78d84b69f002e850c9c8c694999c0f26c8af",
		"hubs/gin/fp32":     "4efe5ea8a369a1c839a4ceb0df44c7d65d220680eeffa3397ff9e4f8ccfb69d8",
		"hubs/gin/int8":     "a5b4b00749ae6e83c967e4421417c6126692f9577897f2f772442226e7ef4d34",
		"hubs/gs-mean/fp32": "1e11ec93adae4136233fd3d4db3aa30e9e8047ed7dcb08a56ebf7fba8e9a20e1",
		"hubs/gs-mean/int8": "360342ad7487b6203c651961615adda4b9f4d8643a1f997ba6551a820dc81c6a",
		"hubs/gs-pl/fp32":   "d88623835f7cc9844cc266a24c11c681d4320758698bd2a8d585ec1cb450a17a",
		"hubs/gs-pl/int8":   "2372c2cbfadb11824b48e52c181063e10c655adc64dff6b90c87eb684187d797",
		"rmat/gat-4h/fp32":  "fcfa40ee43b7b5ffe46d91042ce3aec21c825c6686454474139d16ea15fd02d2",
		"rmat/gat-4h/int8":  "4ce0b535045eb1b47f770adcf581b0bf663b6a8e7c0f1a01bb0865fc64c48b93",
		"rmat/gat/fp32":     "569cffafccf19d5905ee8be1a478c60753bf99fc403512a79292ab923a12aa26",
		"rmat/gat/int8":     "90cd4822cc81195cc884e9327cf14fa5da7681ab7f87f8670852f80bb20cbf08",
		"rmat/gcn/fp32":     "e3473334fe9db48ae061aa7fc08c3e1179b5e230e37bfcded046a160ab308912",
		"rmat/gcn/int8":     "b6fd2b781f97aa9858b2480247558a4b77bb558b34730a64fc2dff13bb9b01de",
		"rmat/ggcn/fp32":    "5c79817109855b86da73391e2fa658b121bc87a4f8768a047d8a55e36ff8957e",
		"rmat/ggcn/int8":    "b7fcc0e034cf096245f82370feb7ab66d26d15298eb0480d00b4809d543fd48d",
		"rmat/gin/fp32":     "e968887ef07cb397ba61a0771502c43650dd8af52dd2741bb4639315207a2c73",
		"rmat/gin/int8":     "7026937c193b13f64a4dde9eadf656779da566d29343cd18389eb1b16435dd07",
		"rmat/gs-mean/fp32": "2a9ae481189db48267de0dcd1666e901ce55d28e1c26f4fe8d135f2af122d5de",
		"rmat/gs-mean/int8": "b63a49a52ddffffe81fceb23384da4b32982932e6fb948a7d3040779babcb7aa",
		"rmat/gs-pl/fp32":   "eb6aaaa37c560fc54aa1e8048565cf23ad94aa4436f627c9fc4342e09c4b3171",
		"rmat/gs-pl/int8":   "f91c8e55a43f01b1a90665537d515867872b05c4a5487403ed2696284cc4bae8",
	}
	dims := []int{117, 90, 75, 7, 2}
	for gname, g := range map[string]*graph.Graph{"rmat": graph.RMAT(9, 4000, 7), "hubs": hubGraph()} {
		x := gnn.RandomFeatures(g, dims[0], 13)
		for _, name := range gnn.AllModelNames() {
			for tier, m := range map[string]*gnn.Model{
				"fp32": gnn.MustModel(name, dims, 11),
				"int8": quantizedModel(t, name, dims, 11),
			} {
				k := gname + "/" + name + "/" + tier
				if got := forwardDigest(t, m, g, x); got != want[k] {
					t.Errorf("%s: digest %s, want %s", k, got, want[k])
				}
			}
		}
	}
}
