package kgc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
)

// TestTrainedModelsGolden pins, for every model New accepts, the bits of its
// weights after two epochs of Train and of its three scoring methods over a
// fixed query set. The trainer's rng draws, the order of its gradient steps,
// each model's gradient and the tables' optimizer steps all show in the Save
// digest; each model's query builders and tile kernel show in the score
// digests. A change that moves them changes what a seed trains.
func TestTrainedModelsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the golden is recorded on amd64; other architectures may fuse multiply-adds and move the last digit")
	}
	golden := map[string][4]string{
		"TransE":   {"98841ebc5e37d662", "de4743c19602d3a4", "9c52490614673211", "a29b5ab1355b120f"},
		"ComplEx":  {"befa062210d09ef2", "106a158d8d471b6e", "93d520081c3abd34", "5175abac7427aca4"},
		"DistMult": {"c1f15103fde00b5b", "67933f7aa98a80ee", "41475875b60fe9ac", "f567ce20cfdb935b"},
		"ConvE":    {"513cab47655c6a25", "37b0428f6d80b277", "972cf284070435fe", "c96f8d0934504f03"},
		"TuckER":   {"e2ac9bd3aece2051", "10c9b038ed519b72", "50eb366559324bab", "c161a974f3fb2c1b"},
		"RESCAL":   {"8ee17e7854159af0", "b98ed694d5ac537b", "045958c919680a6b", "6cfcbb6b5b8d4a59"},
		"RotatE":   {"71f3d40c8ad88274", "cdd8a54ee71c9ea8", "df17ce8d343e80e8", "a1faf41dc34bfd22"},
	}
	g := trainGraph(t)
	queries := g.Test[:20]
	cands := make([]int32, g.NumEntities)
	for i := range cands {
		cands[i] = int32(i)
	}
	out := make([]float64, len(cands))
	for _, name := range ModelNames() {
		m, err := New(name, g, 16, 3)
		if err != nil {
			t.Fatal(err)
		}
		Train(m, g, TrainConfig{Epochs: 2, Seed: 1})
		var snap bytes.Buffer
		if err := Save(&snap, m); err != nil {
			t.Fatal(err)
		}
		tails, heads, triples := fnv.New64a(), fnv.New64a(), fnv.New64a()
		for _, q := range queries {
			m.ScoreTails(q.H, q.R, cands, out)
			hashFloats(tails, out)
			m.ScoreHeads(q.R, q.T, cands, out)
			hashFloats(heads, out)
			for _, c := range cands[:10] {
				hashFloats(triples, []float64{m.ScoreTriple(q.H, q.R, c), m.ScoreTriple(c, q.R, q.T)})
			}
		}
		snapH := fnv.New64a()
		snapH.Write(snap.Bytes())
		got := [4]string{digest(snapH), digest(tails), digest(heads), digest(triples)}
		if want, ok := golden[name]; !ok || got != want {
			t.Errorf("%s: digests (save, tails, heads, triple) %q, want %q", name, got, want)
		}
	}
}

func hashFloats(h hash.Hash64, v []float64) {
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

func digest(h hash.Hash64) string { return fmt.Sprintf("%016x", h.Sum64()) }
