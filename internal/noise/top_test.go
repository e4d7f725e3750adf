package noise

// Property test for TopInterruptions: the bounded heap selection must
// return exactly the prefix a stable sort by descending Total yields,
// for every n (including n <= 0 and n past the end), and must leave
// r.Interruptions untouched.

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// oracleTop is the reference result: stable sort of a copy by
// descending Total, cut to n; empty for n <= 0.
func oracleTop(all []Interruption, n int) []Interruption {
	out := append([]Interruption(nil), all...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	return out[:max(0, min(n, len(out)))]
}

// randomInterruptions draws Totals from a small value set so equal
// totals are common; Start records the position, which makes every
// element distinguishable when results are compared.
func randomInterruptions(rng *rand.Rand, n int) []Interruption {
	totals := []int64{0, 1, 5, 5, 100, 2902}
	out := make([]Interruption, n)
	for i := range out {
		out[i] = Interruption{
			CPU:        int32(rng.Intn(4)),
			Start:      int64(i),
			End:        int64(i) + 10,
			Total:      totals[rng.Intn(len(totals))],
			Components: []Component{{Key: KeyTimerIRQ, Start: int64(i), Own: int64(i)}},
		}
	}
	return out
}

func TestTopInterruptionsMatchesStableOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 250; trial++ {
		size := rng.Intn(120)
		if trial%25 == 0 {
			size = 0
		}
		r := &Report{Interruptions: randomInterruptions(rng, size)}
		before := make([]Interruption, size)
		copy(before, r.Interruptions)
		for _, n := range []int{-1, 0, 1, 10, size - 1, size, size + 5} {
			got := r.TopInterruptions(n)
			want := oracleTop(before, n)
			if len(got) != len(want) {
				t.Fatalf("trial %d size %d n %d: len %d, want %d", trial, size, n, len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("trial %d size %d n %d: [%d] = start %d total %d, want start %d total %d",
						trial, size, n, i, got[i].Start, got[i].Total, want[i].Start, want[i].Total)
				}
			}
			if !reflect.DeepEqual(r.Interruptions, before) {
				t.Fatalf("trial %d size %d n %d: r.Interruptions mutated", trial, size, n)
			}
		}
	}
}
