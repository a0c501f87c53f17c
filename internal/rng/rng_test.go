package rng

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds collided %d/100 draws", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	var anyNonzero bool
	for i := 0; i < 16; i++ {
		if r.Uint64() != 0 {
			anyNonzero = true
		}
	}
	if !anyNonzero {
		t.Fatal("zero seed produced an all-zero stream")
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(7)
	s1 := r.Split()
	s2 := r.Split()
	coincide := 0
	for i := 0; i < 100; i++ {
		if s1.Uint64() == s2.Uint64() {
			coincide++
		}
	}
	if coincide > 0 {
		t.Fatalf("split streams coincided %d/100 draws", coincide)
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(9).Split()
	b := New(9).Split()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 64, 1000} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	// Chi-square-ish sanity: 10 buckets, 100k draws; each bucket should be
	// within 5% of expectation.
	r := New(11)
	const buckets, draws = 10, 100000
	counts := make([]int, buckets)
	for i := 0; i < draws; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(draws) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Fatalf("bucket %d: %d draws, want ~%.0f", b, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestExpMean(t *testing.T) {
	r := New(13)
	const mean, n = 50.0, 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := r.Exp(mean)
		if v < 0 {
			t.Fatalf("Exp produced negative %v", v)
		}
		sum += v
	}
	got := sum / n
	if math.Abs(got-mean) > 0.03*mean {
		t.Fatalf("Exp mean = %v, want ~%v", got, mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(17)
	for _, n := range []int{0, 1, 2, 5, 33} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSampleProperties(t *testing.T) {
	r := New(19)
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%50) + 1
		k := int(kRaw) % (n + 1)
		s := r.Sample(n, k)
		if len(s) != k {
			return false
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSamplePanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sample(2,3) did not panic")
		}
	}()
	New(1).Sample(2, 3)
}

func TestSampleCoversUniverse(t *testing.T) {
	// Sampling k=n must return all of [0,n).
	s := New(23).Sample(10, 10)
	seen := make([]bool, 10)
	for _, v := range s {
		seen[v] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("Sample(10,10) missing %d", i)
		}
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	r := New(29)
	vals := []int{1, 1, 2, 3, 5, 8, 13}
	orig := map[int]int{}
	for _, v := range vals {
		orig[v]++
	}
	r.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	got := map[int]int{}
	for _, v := range vals {
		got[v]++
	}
	for k, c := range orig {
		if got[k] != c {
			t.Fatalf("shuffle changed multiset: %v", vals)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000)
	}
}

// refSample is Sample as first written, with Floyd's picks kept in a map:
// the oracle for the map-free version.
func refSample(r *Source, n, k int) []int {
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestSampleMatchesFloydReference pins Sample's draws and shuffle to the
// map-based reference, on both sides of the pairwise cut-off, with n from
// k (every value picked) to far above it.
func TestSampleMatchesFloydReference(t *testing.T) {
	meta := New(31)
	for _, k := range []int{0, 1, 2, 7, pairwiseSample - 1, pairwiseSample, pairwiseSample + 1, 64, 200, 1000} {
		for _, n := range []int{k, k + 1, 2 * k, 10*k + 3, 1 << 20} {
			for trial := 0; trial < 20; trial++ {
				seed := meta.Uint64()
				got, want := New(seed).Sample(n, k), refSample(New(seed), n, k)
				if !slices.Equal(got, want) {
					t.Fatalf("Sample(%d, %d) at seed %#x = %v, the reference %v", n, k, seed, got, want)
				}
			}
		}
	}
}

// TestSampleAllocatesOnlyItsResult pins the map's removal: up to the
// cut-off Sample allocates only the slice it returns, and above it one
// table more.
func TestSampleAllocatesOnlyItsResult(t *testing.T) {
	r := New(37)
	for k, want := range map[int]float64{8: 1, pairwiseSample: 1, pairwiseSample + 1: 2, 500: 2} {
		if got := testing.AllocsPerRun(100, func() { r.Sample(4*k, k) }); got != want {
			t.Errorf("Sample(%d, %d) allocates %v objects, want %v", 4*k, k, got, want)
		}
	}
}
