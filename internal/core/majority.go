package core

import (
	"fmt"

	"ringlang/internal/bits"
	"ringlang/internal/lang"
)

// Majority recognizes {w ∈ {0,1}* : #₁(w) > |w|/2} with a single token pass
// carrying two δ-coded counters — ones seen and zeros seen. Strict majority
// of ones is equivalent to #₁ > #₀, so after one circulation the leader just
// compares the counters. Each of the n messages is Θ(log n) bits, so
// BIT(n) = Θ(n log n): like count, a non-regular language sitting exactly on
// the Theorem 4 lower bound.
//
// It is also the smallest complete example of the token-pass framework: the
// whole algorithm is the declaration below — fold, codec, verdict — and the
// framework supplies the nodes, the pass plumbing and the zero-allocation
// payload path.
type Majority struct {
	*TokenRecognizer[majorityState]
}

var _ Recognizer = (*Majority)(nil)

// majorityState is the token state: how many ones and zeros have been folded.
type majorityState struct {
	ones, zeros uint64
}

// NewMajority builds the two-counter majority recognizer.
func NewMajority() *Majority {
	return &Majority{TokenRecognizer: mustTokenRecognizer(TokenAlgo[majorityState]{
		AlgoName: "majority",
		Language: lang.NewMajority(),
		Passes: []TokenPass[majorityState]{{
			Fold: func(s majorityState, letter lang.Letter) (majorityState, error) {
				if letter == '1' {
					s.ones++
				} else {
					s.zeros++
				}
				return s, nil
			},
			Encode: func(w *bits.Writer, s majorityState) {
				w.WriteDeltaValue(s.ones)
				w.WriteDeltaValue(s.zeros)
			},
			Decode: func(r *bits.Reader) (majorityState, error) {
				var s majorityState
				var err error
				if s.ones, err = r.ReadDeltaValue(); err != nil {
					return s, fmt.Errorf("decode ones: %w", err)
				}
				if s.zeros, err = r.ReadDeltaValue(); err != nil {
					return s, fmt.Errorf("decode zeros: %w", err)
				}
				return s, nil
			},
		}},
		Verdict: func(s majorityState) bool { return s.ones > s.zeros },
	})}
}
