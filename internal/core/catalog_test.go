package core

import (
	"errors"
	"testing"

	"ringlang/internal/lang"
)

// refusal classifies a lookup error by the catalog sentinel it wraps:
// "algorithm" (ErrUnknownAlgorithm), "language" (lang.ErrUnknownLanguage) or
// "other" (neither, e.g. the parity index range check); "" for no error.
func refusal(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrUnknownAlgorithm) && !errors.Is(err, lang.ErrUnknownLanguage):
		return "algorithm"
	case errors.Is(err, lang.ErrUnknownLanguage) && !errors.Is(err, ErrUnknownAlgorithm):
		return "language"
	case !errors.Is(err, ErrUnknownAlgorithm) && !errors.Is(err, lang.ErrUnknownLanguage):
		return "other"
	}
	return "both"
}

// TestAlgorithmCatalogResolution pins, row by row, what NewRecognizerByName
// builds or refuses for an (algorithm, language) pair. The rows are written
// out by hand, not derived from the catalog table, so a table edit that
// changes resolution shows up here.
func TestAlgorithmCatalogResolution(t *testing.T) {
	cases := []struct {
		algorithm, language string
		name, langName      string
		refusal             string
	}{
		{"regular-one-pass", "even-ones", "regular-one-pass", "even-ones", ""},
		{"regular-one-pass", "(ab)*", "regular-one-pass", "(ab)*", ""},
		{"regular-one-pass", "length-div-7", "regular-one-pass", "length-div-7", ""},
		{"regular-one-pass", "wcw", "", "", "language"},
		{"regular-one-pass", "L_g[n^2]", "", "", "language"},
		{"regular-one-pass", "bogus", "", "", "language"},
		{"collect-all", "wcw", "collect-all", "wcw", ""},
		{"collect-all", "0^k1^k2^k", "collect-all", "0^k1^k2^k", ""},
		{"collect-all", "anbncn", "collect-all", "0^k1^k2^k", ""},
		{"collect-all", "0^k1^k", "collect-all", "0^k1^k", ""},
		{"collect-all", "ends-abb", "collect-all", "ends-abb", ""},
		{"collect-all", "", "", "", "language"},
		{"count", "", "count", "length-is-square", ""},
		{"count", "bogus", "count", "length-is-square", ""},
		{"count-backward", "", "count-backward", "length-is-square", ""},
		{"three-counters", "", "three-counters", "0^k1^k2^k", ""},
		{"majority", "", "majority", "majority", ""},
		{"balanced-counter", "", "balanced-counter", "dyck", ""},
		{"compare-wcw", "", "compare-wcw", "wcw", ""},
		{"lg", "n^2", "lg", "L_g[n^2]", ""},
		{"lg", "L_g[n^2]", "lg", "L_g[n^2]", ""},
		{"lg", "n*log n", "lg", "L_g[n*log n]", ""},
		{"lg", "n^37", "", "", "language"},
		{"lg", "", "", "", "language"},
		{"lg-known-n", "n^1.5", "lg-known-n", "L_g[n^1.5]", ""},
		{"lg-known-n", "L_g[n^1.25]", "lg-known-n", "L_g[n^1.25]", ""},
		{"lg-known-n", "wcw", "", "", "language"},
		{"parity-one-pass", "k=3", "parity-one-pass", "parity-index[k=3]", ""},
		{"parity-one-pass", "k=x", "", "", "language"},
		{"parity-one-pass", "", "", "", "language"},
		{"parity-two-pass", "k=3", "parity-two-pass", "parity-index[k=3]", ""},
		{"parity-two-pass", "k=x", "", "", "language"},
		{"parity-two-pass", "k=0", "", "", "other"},
		{"bogus", "", "", "", "algorithm"},
		{"bogus", "even-ones", "", "", "algorithm"},
		{"", "", "", "", "algorithm"},
	}
	covered := map[string]bool{}
	for _, c := range cases {
		covered[c.algorithm] = true
		rec, err := NewRecognizerByName(c.algorithm, c.language)
		if got := refusal(err); got != c.refusal {
			t.Errorf("(%q, %q): refusal %q (error %v), want %q", c.algorithm, c.language, got, err, c.refusal)
			continue
		}
		if err == nil && (rec.Name() != c.name || rec.Language().Name() != c.langName) {
			t.Errorf("(%q, %q) built %s on %s, want %s on %s",
				c.algorithm, c.language, rec.Name(), rec.Language().Name(), c.name, c.langName)
		}
	}
	for _, name := range AlgorithmNames() {
		if !covered[name] {
			t.Errorf("algorithm %q has no resolution row", name)
		}
	}
}
