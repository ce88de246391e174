package core

import (
	"errors"
	"fmt"
	"strings"

	"ringlang/internal/lang"
)

// ErrUnknownAlgorithm is returned when an algorithm name is not one of
// AlgorithmNames. Lookup errors wrap it (and language-argument failures wrap
// lang.ErrUnknownLanguage), so callers classify failures with errors.Is
// instead of string matching.
var ErrUnknownAlgorithm = errors.New("core: unknown algorithm")

// algorithmSpec is one row of the algorithm catalog: every fact the rest of
// the package knows about an algorithm name.
type algorithmSpec struct {
	name string
	// standard lists the language arguments the complexity-envelope sweep
	// (StandardModels) runs the algorithm on; "" for algorithms that fix
	// their own language.
	standard []string
	// new builds the recognizer for a language argument; algorithms that fix
	// their own language ignore it.
	new func(language string) (Recognizer, error)
	// model is the paper's bit-complexity envelope for a recognizer built by
	// new.
	model func(Recognizer) ComplexityModel
}

// algorithmSpecs is the algorithm catalog, in AlgorithmNames order.
var algorithmSpecs = []algorithmSpec{
	{name: "regular-one-pass", new: newRegularOnePass, model: ModelRegularOnePass,
		standard: []string{"even-ones", "ones-div-5", "(ab)*", "ends-abb", "contains-abbab", "length-div-7"}},
	{name: "collect-all", new: newCollectAll, model: ModelCollectAll, standard: []string{"anbncn"}},
	{name: "count", new: fixed(NewSquareCount), model: ModelCount, standard: []string{""}},
	{name: "count-backward", model: ModelCount, standard: []string{""},
		new: func(string) (Recognizer, error) { return NewCountBackward(lang.NewPerfectSquareLength()), nil }},
	{name: "three-counters", new: fixed(NewThreeCounters), model: ModelThreeCounters, standard: []string{""}},
	{name: "majority", new: fixed(NewMajority), model: ModelMajority, standard: []string{""}},
	{name: "balanced-counter", new: fixed(NewBalancedCounter), model: ModelBalancedCounter, standard: []string{""}},
	{name: "compare-wcw", new: fixed(NewCompareWcW), model: ModelCompareWcW, standard: []string{""}},
	{name: "lg", new: newLg(NewLgRecognizer), model: ModelLg, standard: growthNames()},
	{name: "lg-known-n", new: newLg(NewLgRecognizerKnownN), model: ModelLg, standard: growthNames()},
	{name: "parity-one-pass", new: newParity(NewParityOnePass), model: ModelParityOnePass, standard: []string{"k=3"}},
	{name: "parity-two-pass", new: newParity(NewParityTwoPass), model: ModelParityTwoPass, standard: []string{"k=3"}},
}

// fixed adapts the constructor of an algorithm with its own fixed language.
func fixed[R Recognizer](build func() R) func(string) (Recognizer, error) {
	return func(string) (Recognizer, error) { return build(), nil }
}

func newRegularOnePass(language string) (Recognizer, error) {
	l, err := lang.ByName(language)
	if err != nil {
		return nil, err
	}
	reg, ok := l.(*lang.Regular)
	if !ok {
		return nil, fmt.Errorf("core: %w: %q is not a regular language", lang.ErrUnknownLanguage, language)
	}
	return NewRegularOnePass(reg), nil
}

func newCollectAll(language string) (Recognizer, error) {
	l, err := lang.ByName(language)
	if err != nil {
		return nil, err
	}
	return NewCollectAll(l), nil
}

// newLg resolves a growth function by its own name ("n^2") or by its
// language's name ("L_g[n^2]").
func newLg(build func(*lang.Lg) *LgRecognizer) func(string) (Recognizer, error) {
	return func(language string) (Recognizer, error) {
		for _, g := range lang.StandardGrowthFuncs() {
			if l := lang.NewLg(g); l.Name() == language || g.Name == language {
				return build(l), nil
			}
		}
		return nil, fmt.Errorf("core: %w: unknown growth function %q", lang.ErrUnknownLanguage, language)
	}
}

// growthNames lists the standard growth functions by name.
func growthNames() []string {
	var names []string
	for _, g := range lang.StandardGrowthFuncs() {
		names = append(names, g.Name)
	}
	return names
}

// newParity parses a language argument of the form "k=<int>".
func newParity[R Recognizer](build func(*lang.ParityIndex) R) func(string) (Recognizer, error) {
	return func(language string) (Recognizer, error) {
		var k int
		if _, err := fmt.Sscanf(language, "k=%d", &k); err != nil {
			return nil, fmt.Errorf("core: %w: parity recognizers take a language of the form \"k=<int>\": %v", lang.ErrUnknownLanguage, err)
		}
		pl, err := lang.NewParityIndex(k)
		if err != nil {
			return nil, err
		}
		return build(pl), nil
	}
}

// lookupAlgorithm returns the catalog row of an algorithm name, or nil.
func lookupAlgorithm(name string) *algorithmSpec {
	for i := range algorithmSpecs {
		if algorithmSpecs[i].name == name {
			return &algorithmSpecs[i]
		}
	}
	return nil
}

// NewRecognizerByName builds a recognizer from a short name, used by the cmd
// tools and the ringlang facade. Algorithms parameterized by a language take
// its name (or, for lg and parity, a growth-function or "k=<int>" argument);
// the others ignore language.
func NewRecognizerByName(algorithm, language string) (Recognizer, error) {
	a := lookupAlgorithm(algorithm)
	if a == nil {
		return nil, fmt.Errorf("%w %q (known: %s)",
			ErrUnknownAlgorithm, algorithm, strings.Join(AlgorithmNames(), ", "))
	}
	return a.new(language)
}

// AlgorithmNames lists the algorithm names accepted by NewRecognizerByName.
func AlgorithmNames() []string {
	names := make([]string, len(algorithmSpecs))
	for i := range algorithmSpecs {
		names[i] = algorithmSpecs[i].name
	}
	return names
}

// modelFor returns the complexity envelope of a recognizer built from the
// catalog, looked up by its algorithm name.
func modelFor(rec Recognizer) (ComplexityModel, bool) {
	a := lookupAlgorithm(rec.Name())
	if a == nil {
		return ComplexityModel{}, false
	}
	return a.model(rec), true
}

// StandardModels pairs every catalog algorithm, on each of its standard
// languages, with its envelope; the verification test sweeps all of them.
func StandardModels() ([]Recognizer, []ComplexityModel, error) {
	var recs []Recognizer
	var models []ComplexityModel
	for _, a := range algorithmSpecs {
		for _, language := range a.standard {
			rec, err := a.new(language)
			if err != nil {
				return nil, nil, err
			}
			recs = append(recs, rec)
			models = append(models, a.model(rec))
		}
	}
	return recs, models, nil
}
