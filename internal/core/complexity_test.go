package core

import (
	"math/rand"
	"testing"

	"ringlang/internal/lang"
)

// TestComplexityEnvelopes runs every recognizer with a declared complexity
// model across a size sweep and asserts the measured bit totals stay inside
// the paper's envelope — the executable form of the per-algorithm analyses.
func TestComplexityEnvelopes(t *testing.T) {
	recs, models, err := StandardModels()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(models) {
		t.Fatalf("StandardModels returned %d recognizers but %d models", len(recs), len(models))
	}
	swept := map[string]bool{}
	for i, rec := range recs {
		swept[rec.Name()] = true
		if models[i].Algorithm != rec.Name() {
			t.Errorf("model %q paired with recognizer %q", models[i].Algorithm, rec.Name())
		}
	}
	for _, name := range AlgorithmNames() {
		if !swept[name] {
			t.Errorf("algorithm %q has no envelope in StandardModels", name)
		}
	}
	rng := rand.New(rand.NewSource(77))
	sizes := []int{8, 33, 65, 129, 257}
	for i, rec := range recs {
		model := models[i]
		for _, n := range sizes {
			word, _, err := lang.MemberOrSkip(rec.Language(), n, 8, rng)
			if err != nil {
				word = lang.RandomWord(rec.Language().Alphabet(), n, rng)
			}
			res, err := Run(rec, word, RunOptions{})
			if err != nil {
				t.Fatalf("%s at n=%d: %v", rec.Name(), n, err)
			}
			if !model.Contains(len(word), res.Stats.Bits) {
				t.Errorf("envelope violated: %s", model.Describe(len(word), res.Stats.Bits))
			}
		}
	}
}

func TestComplexityModelDescribe(t *testing.T) {
	m := ModelCount(NewSquareCount())
	if !m.Contains(100, 800) {
		t.Error("800 bits at n=100 should be inside the counting envelope")
	}
	if m.Contains(100, 50) || m.Contains(100, 10_000_000) {
		t.Error("values far outside the envelope must be rejected")
	}
	if m.Describe(100, 800) == "" {
		t.Error("Describe should produce a message")
	}
}

func TestParityModelsAreExact(t *testing.T) {
	language, err := lang.NewParityIndex(4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(78))
	word, _ := language.GenerateMember(96, rng)
	for _, rec := range []Recognizer{NewParityTwoPass(language), NewParityOnePass(language)} {
		res := runOn(t, rec, word)
		model, ok := modelFor(rec)
		if !ok {
			t.Fatalf("%s has no catalog model", rec.Name())
		}
		if model.Lower(96) != model.Upper(96) || !model.Contains(96, res.Stats.Bits) {
			t.Errorf("%s formula mismatch: %s", rec.Name(), model.Describe(96, res.Stats.Bits))
		}
	}
}
