// Package core implements the paper's distributed recognition algorithms —
// the primary contribution of the reproduction. Every algorithm is a
// Recognizer: a factory that, given the word labelling the ring, builds one
// ring.Node per processor (processor 0 being the leader) and whose verdict is
// compared against the language's membership predicate.
//
// Entry points: Run executes a recognizer on a word under RunOptions{Engine,
// Schedule, Seed, RecordTrace, State, Ctx, Prefix, Reuse} (State reuses a
// ring.RunState across runs — the batch pool's zero-allocation path; without
// it the result keeps only its Stats, not the transient run state; Ctx
// cancels mid-run with ring.ErrCanceled); Check is Run plus a
// verdict-vs-membership cross-check.
//
// The algorithm catalog is one table (algorithmSpecs in catalog.go), one row
// per algorithm name with its constructor, its complexity envelope and the
// languages the envelope sweep uses. NewRecognizerByName, AlgorithmNames and
// StandardModels derive from it; NewRecognizerByName serves the cmd tools,
// the ringlang facade and the serving tier, wrapping lookup failures in
// ErrUnknownAlgorithm / lang.ErrUnknownLanguage.
//
// Most recognizers are declarations over the token-pass framework
// (TokenAlgo/TokenPass/NewTokenRecognizer, see token.go): a spec of per-pass
// Fold/Encode/Decode functions and a final Verdict, from which the framework
// builds the nodes, the leader/pass plumbing and the pooled payload path.
//
// The algorithms, with their bit complexities as analysed in the paper:
//
//   - RegularOnePass (Theorem 1/6): one pass carrying a DFA state, O(n) bits.
//   - CollectAll (Section 1): the universal baseline, the leader collects the
//     whole word, O(n²) bits.
//   - Count (Section 8 example): the leader learns n, O(n log n) bits; used
//     standalone for length languages and as the first phase of others.
//   - ThreeCounters (Section 7 note 2): {0ᵏ1ᵏ2ᵏ} in O(n log n) bits.
//   - CompareWcW (Section 7 note 1): {wcw} in Θ(n²) bits.
//   - LgRecognizer (Section 7 note 3/4): the Θ(g(n)) hierarchy, with an
//     optional known-n mode that removes the counting phase.
//   - ParityOnePass / ParityTwoPass (Section 7 note 5): the passes-vs-bits
//     trade-off for a regular language over 2ᵏ letters.
//   - CountBackward and LineSimulation (Theorem 7 stage 1): bidirectional
//     algorithms and the cut-link line transformation.
//
// Extensions beyond the paper, built on the same framework and held to the
// same golden/property tests: Majority ({w : #₁(w) > |w|/2}, Θ(n log n)),
// BalancedCounter, the Dyck recognizer and the aggregate functions.
package core
