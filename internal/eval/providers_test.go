package eval

import (
	"math/rand"
	"testing"
)

func TestFullProviderStable(t *testing.T) {
	p := NewFullProvider(5)
	rng := rand.New(rand.NewSource(1))
	a := p.Candidates(0, true, rng)
	b := p.Candidates(3, false, rng)
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("full provider sizes %d/%d, want 5", len(a), len(b))
	}
	for i := range a {
		if a[i] != int32(i) {
			t.Fatalf("full provider candidates = %v", a)
		}
	}
}
