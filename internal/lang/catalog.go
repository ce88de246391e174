package lang

import (
	"errors"
	"fmt"
	"slices"

	"ringlang/internal/automata"
)

// ErrUnknownLanguage is returned when a language name (or a language argument
// such as a growth-function or parity-index spec) resolves to nothing in the
// catalog. Lookup errors wrap it, so callers classify failures with errors.Is
// instead of string matching.
var ErrUnknownLanguage = errors.New("lang: unknown language")

// languageSpec is one row of the language catalog.
type languageSpec struct {
	// name is the catalog name; aliases resolve to the same language.
	name    string
	aliases []string
	// new builds the language. Rows are built only when looked up, so a
	// lookup pays for its own automaton and no other.
	new func() (Language, error)
}

// languageSpecs is the language catalog, in CatalogNames order: the fixed
// non-regular languages, the L_g hierarchy over StandardGrowthFuncs, and the
// standard regular set, whose DFAs differ in size so the ⌈log |Q|⌉ constant
// of Theorem 1's algorithm varies.
var languageSpecs = []languageSpec{
	{name: "wcw", new: fixed(NewWcW)},
	{name: "anbncn", aliases: []string{"0^k1^k2^k"}, new: fixed(NewAnBnCn)},
	{name: "anbn", aliases: []string{"0^k1^k"}, new: fixed(NewAnBn)},
	{name: "dyck", new: fixed(NewDyck)},
	{name: "majority", new: fixed(NewMajority)},
	{name: "palindrome", new: fixed(NewPalindrome)},
	{name: "length-is-square", new: fixed(NewPerfectSquareLength)},
	lgSpec(GrowthNLogN),
	lgSpec(GrowthN125),
	lgSpec(GrowthN15),
	lgSpec(GrowthN175),
	lgSpec(GrowthN2),
	dfaSpec("even-ones", func() (*automata.DFA, error) { return automata.NewParityDFA(), nil }),
	dfaSpec("ones-div-5", func() (*automata.DFA, error) { return automata.NewModCounterDFA(5) }),
	regexSpec("(ab)*", "(ab)*"),
	regexSpec("ends-abb", "(a|b)*abb"),
	dfaSpec("contains-abbab", func() (*automata.DFA, error) {
		return automata.NewContainsSubstringDFA([]rune{'a', 'b'}, []rune("abbab"))
	}),
	dfaSpec("length-div-7", func() (*automata.DFA, error) {
		return automata.NewLengthModDFA([]rune{'a', 'b'}, 7, 0)
	}),
}

// fixed adapts the constructor of a parameterless language.
func fixed[L Language](build func() L) func() (Language, error) {
	return func() (Language, error) { return build(), nil }
}

// lgSpec is the row of L_g for one growth function, named like the language.
func lgSpec(g GrowthFunc) languageSpec {
	return languageSpec{name: NewLg(g).Name(), new: func() (Language, error) { return NewLg(g), nil }}
}

// dfaSpec is a regular row built from a DFA.
func dfaSpec(name string, dfa func() (*automata.DFA, error)) languageSpec {
	return languageSpec{name: name, new: func() (Language, error) {
		d, err := dfa()
		if err != nil {
			return nil, err
		}
		return regular(NewRegular(name, d))
	}}
}

// regexSpec is a regular row compiled from a regular expression.
func regexSpec(name, expr string) languageSpec {
	return languageSpec{name: name, new: func() (Language, error) { return regular(NewRegularFromRegex(name, expr)) }}
}

// regular converts a regular-language constructor result without wrapping a
// nil *Regular in a non-nil Language.
func regular(r *Regular, err error) (Language, error) {
	if err != nil {
		return nil, err
	}
	return r, nil
}

// StandardGrowthFuncs returns the growth functions swept by the hierarchy
// experiment (E5/E6), bottom to top.
func StandardGrowthFuncs() []GrowthFunc {
	return []GrowthFunc{GrowthNLogN, GrowthN125, GrowthN15, GrowthN175, GrowthN2}
}

// ByName looks a language up by catalog name or alias; it is used by the cmd
// tools and the by-name algorithm catalog. Only the row found is built.
func ByName(name string) (Language, error) {
	for _, s := range languageSpecs {
		if s.name == name || slices.Contains(s.aliases, name) {
			return s.new()
		}
	}
	return nil, fmt.Errorf("%w %q", ErrUnknownLanguage, name)
}

// CatalogNames lists every language name resolvable by ByName (aliases
// aside).
func CatalogNames() []string {
	names := make([]string, len(languageSpecs))
	for i := range languageSpecs {
		names[i] = languageSpecs[i].name
	}
	return names
}

// StandardRegularLanguages returns the regular languages of the catalog, in
// catalog order; the E1 experiment and the examples sweep them.
func StandardRegularLanguages() ([]*Regular, error) {
	var out []*Regular
	for _, s := range languageSpecs {
		l, err := s.new()
		if err != nil {
			return nil, err
		}
		if r, ok := l.(*Regular); ok {
			out = append(out, r)
		}
	}
	return out, nil
}
