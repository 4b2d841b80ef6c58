package aco

import (
	"math"
	"math/rand"
	"testing"
)

func TestSelectWeightedDistribution(t *testing.T) {
	r := NewRand(1)
	weights := []float64{1, 3, 0, 6}
	counts := make([]int, len(weights))
	const trials = 100000
	for i := 0; i < trials; i++ {
		counts[SelectWeighted(r, weights)]++
	}
	if counts[2] != 0 {
		t.Errorf("zero-weight option selected %d times", counts[2])
	}
	// Expected shares 0.1, 0.3, 0, 0.6 within 2% absolute.
	want := []float64{0.1, 0.3, 0, 0.6}
	for i, w := range want {
		got := float64(counts[i]) / trials
		if math.Abs(got-w) > 0.02 {
			t.Errorf("option %d share %.3f, want %.3f", i, got, w)
		}
	}
}

// topSource is a rand.Source pinned to the draw that makes Float64 return
// its largest value, 1 - 2^-53.
type topSource struct{}

func (topSource) Int63() int64 { return 1<<63 - 1024 }
func (topSource) Seed(int64)   {}

// TestSelectWeightedRoundingSkipsZeroTail pins the rounding fallback: the
// largest Float64 draw times the total can survive subtracting every
// positive weight, and the draw must then land on the last positive weight,
// not on a zero-weight entry behind it.
func TestSelectWeightedRoundingSkipsZeroTail(t *testing.T) {
	r := rand.New(topSource{})
	weights := []float64{58.983418500491936, 55.939244907101404, 81.54051709333606, 0}
	if got := SelectWeighted(r, weights); got != 2 {
		t.Fatalf("SelectWeighted = %d, want 2 (the last positive weight)", got)
	}
}

func TestSelectWeightedNegativeTreatedZero(t *testing.T) {
	r := NewRand(2)
	for i := 0; i < 1000; i++ {
		if got := SelectWeighted(r, []float64{-5, 1}); got != 1 {
			t.Fatalf("selected negative-weight option")
		}
	}
}

func TestSelectWeightedZeroMassUniform(t *testing.T) {
	r := NewRand(3)
	counts := make([]int, 3)
	for i := 0; i < 30000; i++ {
		counts[SelectWeighted(r, []float64{0, 0, 0})]++
	}
	for i, c := range counts {
		if c < 8000 {
			t.Errorf("option %d drawn %d/30000, want ≈10000", i, c)
		}
	}
}

func TestSelectWeightedPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty weights")
		}
	}()
	SelectWeighted(NewRand(1), nil)
}

func TestNormalizePreservesRatios(t *testing.T) {
	w := []float64{2, 6}
	Normalize(w, 100)
	if math.Abs(w[0]-25) > 1e-9 || math.Abs(w[1]-75) > 1e-9 {
		t.Fatalf("Normalize = %v, want [25 75]", w)
	}
}

func TestNormalizeFloorsNonPositive(t *testing.T) {
	w := []float64{0, -3, 10}
	Normalize(w, 100)
	if w[0] <= 0 || w[1] <= 0 {
		t.Fatalf("Normalize left non-positive entries: %v", w)
	}
	sum := w[0] + w[1] + w[2]
	if math.Abs(sum-100) > 1e-6 {
		t.Fatalf("sum = %v", sum)
	}
}

func TestMaxShare(t *testing.T) {
	share, idx := MaxShare([]float64{1, 1, 8})
	if idx != 2 || math.Abs(share-0.8) > 1e-9 {
		t.Fatalf("MaxShare = %v,%d", share, idx)
	}
	if share, _ := MaxShare([]float64{0, 0}); share != 0 {
		t.Fatalf("zero-mass share = %v", share)
	}
}

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed diverged")
		}
	}
}
