// Package lang is the formal-language substrate: alphabets, words, the
// Language interface used by every recognizer, wrappers turning automata into
// languages, and the specific languages the paper analyses:
//
//   - regular languages (Theorem 1/6: O(n) bits),
//   - WcW = {wcw : w ∈ {a,b}*} (Section 7 note 1: Θ(n²) bits),
//   - AnBnCn = {0ᵏ1ᵏ2ᵏ} (note 2: O(n log n) bits, context-sensitive),
//   - the L_g family (note 3: the Θ(g(n)) hierarchy between n log n and n²),
//   - the parity-index language over 2ᵏ letters (note 5: passes-vs-bits
//     trade-off).
//
// Every language provides membership testing plus deterministic generators
// for members and near-miss non-members of a given ring size, which is what
// the benchmark harness feeds to the ring algorithms. The named catalog
// (ByName, CatalogNames, StandardRegularLanguages) is one table of rows in
// catalog.go.
package lang
