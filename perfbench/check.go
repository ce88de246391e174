package main

import (
	"fmt"
	"math/rand"

	"ringlang/internal/core"
	"ringlang/internal/lang"
	"ringlang/internal/ring"
)

// outcome is what the program reported for one word: the verdict and the
// exact accounting that every schedule, cache and resume must reproduce.
type outcome struct {
	verdict  string
	bits     int
	messages int
}

// checker holds the first outcome seen for every distinct word of a run.
// A later report of the same word that differs is a failure, and after the
// timed phase a seeded sample of the words is re-run cold and compared.
type checker struct {
	wordOf   func(id int) (algoKey, string)
	seen     map[int]outcome
	order    []int
	failures []string
}

func newChecker(wordOf func(id int) (algoKey, string)) *checker {
	return &checker{wordOf: wordOf, seen: make(map[int]outcome)}
}

// fail records one failed check.
func (c *checker) fail(format string, args ...any) {
	if len(c.failures) < 20 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// verdictMatches reports whether a verdict agrees with the language's own
// membership answer.
func verdictMatches(verdict string, member bool) bool {
	if member {
		return verdict == ring.VerdictAccept.String()
	}
	return verdict == ring.VerdictReject.String()
}

// observe checks one report of word id: the verdict must equal the
// language's member answer, and the accounting must equal that of every
// earlier report of the same word.
func (c *checker) observe(id int, member bool, o outcome) bool {
	if !verdictMatches(o.verdict, member) {
		c.fail("word %d: verdict %s but member=%v", id, o.verdict, member)
		return false
	}
	prev, ok := c.seen[id]
	if !ok {
		c.seen[id] = o
		c.order = append(c.order, id)
		return true
	}
	if prev != o {
		c.fail("word %d: reported %+v, earlier %+v", id, o, prev)
		return false
	}
	return true
}

// coldSample re-runs up to k of the run's distinct words, chosen with rng,
// cold through core.Run on a fresh sequential engine, and compares verdict,
// bits and messages with what the program reported. It returns how many
// words it re-ran and how many differed.
func (c *checker) coldSample(rng *rand.Rand, k int) (attempted, failed int) {
	ids := append([]int(nil), c.order...)
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	if len(ids) > k {
		ids = ids[:k]
	}
	for _, id := range ids {
		key, word := c.wordOf(id)
		attempted++
		rec, err := core.NewRecognizerByName(key.Algorithm, key.Language)
		if err != nil {
			c.fail("cold re-run of word %d: %v", id, err)
			failed++
			continue
		}
		res, err := core.Run(rec, lang.WordFromString(word), core.RunOptions{Engine: ring.NewSequentialEngine()})
		if err != nil {
			c.fail("cold re-run of word %d: %v", id, err)
			failed++
			continue
		}
		cold := outcome{verdict: res.Verdict.String(), bits: res.Stats.Bits, messages: res.Stats.Messages}
		if cold != c.seen[id] {
			c.fail("cold re-run of word %d: %+v, served %+v", id, cold, c.seen[id])
			failed++
		}
	}
	return attempted, failed
}

// totals sums bits and messages over the distinct words observed.
func (c *checker) totals() (bits, messages int64) {
	for _, id := range c.order {
		o := c.seen[id]
		bits += int64(o.bits)
		messages += int64(o.messages)
	}
	return bits, messages
}
