package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"math/rand"

	"ringlang/internal/core"
	"ringlang/internal/server"
)

// The three workloads. Each one is a closed loop: one caller sends the next
// operation only after the previous reply, and the program gets one pool
// worker. Operation counts are fixed by --seconds through the nominal rates
// below, never by how fast the program runs, so a faster program does the
// same work in less time instead of serving more distinct words.
const (
	wlBatchCold   = "batch-cold"
	wlServeZipf   = "serve-zipf"
	wlServePrefix = "serve-prefix"
)

var workloadNames = []string{wlBatchCold, wlServeZipf, wlServePrefix}

// algoKey names one (algorithm, language, schedule) client.
type algoKey struct {
	Algorithm string
	Language  string
	Schedule  string
}

const (
	// batch-cold: distinct 2^16-letter words, batchPerCall to a Batch call,
	// calls rotating over the three algorithms.
	batchWordLen      = 1 << 16
	batchPerCall      = 4
	batchCallsPerSec  = 12 // nominal Batch calls per second of --seconds
	batchWarmPerAlgo  = 2  // warm-up words per client
	batchSetupRepeats = 5

	// serve-zipf: fixed-length words drawn Zipf from a working set 4x the
	// server's default memo capacity.
	zipfWordLen       = 256
	zipfWorkingSet    = 4 * server.DefaultCacheCapacity
	zipfExponent      = 1.03
	zipfWarmRanks     = 2 * server.DefaultCacheCapacity // warm-up: these ranks, least popular first
	zipfReqPerSec     = 25000
	zipfSetupRepeats  = 3
	prefixWordLen     = 4096
	prefixShared      = prefixWordLen * 7 / 8 // E16's corpus shape: siblings share 7/8
	prefixBatch       = 8
	prefixWarmOps     = 3 * server.DefaultCacheCapacity / (2 * prefixBatch) // fills every memo shard
	prefixReqPerSec   = 160
	prefixSetupRepeat = 3
)

var (
	batchAlgos = []algoKey{
		{"majority", "", "sequential"},
		{"count", "", "sequential"},
		{"regular-one-pass", "even-ones", "sequential"},
	}
	zipfAlgos = []algoKey{
		{"majority", "", "sequential"},
		{"majority", "", "round-robin"},
		{"regular-one-pass", "even-ones", "sequential"},
		{"regular-one-pass", "even-ones", "round-robin"},
	}
	prefixAlgo = algoKey{"majority", "", "sequential"}
)

// opsFor is the fixed operation count of a run of the given length.
func opsFor(perSecond float64, seconds int) int {
	n := int(perSecond * float64(seconds))
	if n < 1 {
		n = 1
	}
	return n
}

// alphabetOf returns the letters of an algorithm's language as bytes (every
// catalog language used here is ASCII).
func alphabetOf(k algoKey) []byte {
	rec, err := core.NewRecognizerByName(k.Algorithm, k.Language)
	if err != nil {
		panic(fmt.Sprintf("perfbench: %v", err))
	}
	var out []byte
	for _, l := range rec.Language().Alphabet() {
		out = append(out, byte(l))
	}
	return out
}

func randomWord(alphabet []byte, n int, rng *rand.Rand) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

// batchOp is one Client.Batch call.
type batchOp struct {
	algo  int
	words []string
}

// batchPlan is the batch-cold input: warm-up calls, then the timed calls.
// Every word of the plan is distinct.
type batchPlan struct {
	warm []batchOp
	ops  []batchOp
}

func newBatchPlan(seed int64, seconds int) *batchPlan {
	rng := rand.New(rand.NewSource(seed))
	alphabets := make([][]byte, len(batchAlgos))
	for i, k := range batchAlgos {
		alphabets[i] = alphabetOf(k)
	}
	seen := make(map[string]bool)
	word := func(algo int) string {
		for {
			w := randomWord(alphabets[algo], batchWordLen, rng)
			if !seen[w] {
				seen[w] = true
				return w
			}
		}
	}
	p := &batchPlan{}
	for a := range batchAlgos {
		op := batchOp{algo: a}
		for i := 0; i < batchWarmPerAlgo; i++ {
			op.words = append(op.words, word(a))
		}
		p.warm = append(p.warm, op)
	}
	for i := 0; i < opsFor(batchCallsPerSec, seconds); i++ {
		op := batchOp{algo: i % len(batchAlgos)}
		for j := 0; j < batchPerCall; j++ {
			op.words = append(op.words, word(op.algo))
		}
		p.ops = append(p.ops, op)
	}
	return p
}

// zipfItem is one word of the serve-zipf working set with its request body.
type zipfItem struct {
	algo int
	word string
	body []byte
}

// zipfPlan is the serve-zipf input: the working set, the warm-up sequence
// and the timed request sequence, both as indexes into items.
type zipfPlan struct {
	items []zipfItem
	warm  []int
	ops   []int
}

func newZipfPlan(seed int64, seconds int) *zipfPlan {
	rng := rand.New(rand.NewSource(seed))
	alphabets := make([][]byte, len(zipfAlgos))
	for i, k := range zipfAlgos {
		alphabets[i] = alphabetOf(k)
	}
	p := &zipfPlan{items: make([]zipfItem, zipfWorkingSet)}
	seen := make(map[string]bool)
	for i := range p.items {
		algo := i % len(zipfAlgos)
		var w string
		for {
			w = randomWord(alphabets[algo], zipfWordLen, rng)
			if !seen[w] {
				seen[w] = true
				break
			}
		}
		k := zipfAlgos[algo]
		body, err := json.Marshal(map[string]string{
			"algorithm": k.Algorithm, "language": k.Language, "schedule": k.Schedule, "word": w,
		})
		if err != nil {
			panic(err)
		}
		p.items[i] = zipfItem{algo: algo, word: w, body: body}
	}
	// Popularity rank r is item byRank[r], so popularity is independent of
	// the algorithm and schedule an item runs under.
	byRank := rng.Perm(zipfWorkingSet)
	for r := zipfWarmRanks - 1; r >= 0; r-- {
		p.warm = append(p.warm, byRank[r])
	}
	z := rand.NewZipf(rng, zipfExponent, 1, zipfWorkingSet-1)
	for i := 0; i < opsFor(zipfReqPerSec, seconds); i++ {
		p.ops = append(p.ops, byRank[z.Uint64()])
	}
	return p
}

// prefixOp is one /v1/batch request of serve-prefix: prefixBatch words that
// share the first prefixShared letters of a fresh seed word and differ from
// it right after.
type prefixOp struct {
	seed  string
	tails []string
}

func (op prefixOp) words() []string {
	out := make([]string, len(op.tails))
	for i, t := range op.tails {
		out[i] = op.seed[:prefixShared] + t
	}
	return out
}

func (op prefixOp) body() []byte {
	body, err := json.Marshal(map[string]any{
		"algorithm": prefixAlgo.Algorithm, "schedule": prefixAlgo.Schedule, "words": op.words(),
	})
	if err != nil {
		panic(err)
	}
	return body
}

// prefixPlan is the serve-prefix input. Every word of it is distinct, so
// every word misses the memo.
type prefixPlan struct {
	warm []prefixOp
	ops  []prefixOp
}

func newPrefixPlan(seed int64, seconds int) *prefixPlan {
	rng := rand.New(rand.NewSource(seed))
	alphabet := alphabetOf(prefixAlgo)
	seenSeed := make(map[string]bool)
	op := func() prefixOp {
		var o prefixOp
		for {
			o.seed = randomWord(alphabet, prefixWordLen, rng)
			if !seenSeed[o.seed[:prefixShared]] {
				seenSeed[o.seed[:prefixShared]] = true
				break
			}
		}
		seenTail := make(map[string]bool)
		for len(o.tails) < prefixBatch {
			t := []byte(randomWord(alphabet, prefixWordLen-prefixShared, rng))
			if t[0] == o.seed[prefixShared] {
				t[0] = otherLetter(alphabet, t[0])
			}
			if !seenTail[string(t)] {
				seenTail[string(t)] = true
				o.tails = append(o.tails, string(t))
			}
		}
		return o
	}
	p := &prefixPlan{}
	for i := 0; i < prefixWarmOps; i++ {
		p.warm = append(p.warm, op())
	}
	for i := 0; i < opsFor(prefixReqPerSec, seconds); i++ {
		p.ops = append(p.ops, op())
	}
	return p
}

func otherLetter(alphabet []byte, b byte) byte {
	for _, l := range alphabet {
		if l != b {
			return l
		}
	}
	return b
}

// digest hashes a plan's full operation sequence; the same seed must give
// the same digest.
func digest(write func(h hash.Hash)) [32]byte {
	h := sha256.New()
	write(h)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func writeInt(h hash.Hash, v int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

func writeStr(h hash.Hash, s string) {
	writeInt(h, len(s))
	h.Write([]byte(s))
}

func (p *batchPlan) digest() [32]byte {
	return digest(func(h hash.Hash) {
		for _, ops := range [][]batchOp{p.warm, p.ops} {
			writeInt(h, len(ops))
			for _, op := range ops {
				writeInt(h, op.algo)
				writeInt(h, len(op.words))
				for _, w := range op.words {
					writeStr(h, w)
				}
			}
		}
	})
}

func (p *zipfPlan) digest() [32]byte {
	return digest(func(h hash.Hash) {
		writeInt(h, len(p.items))
		for _, it := range p.items {
			writeInt(h, it.algo)
			writeStr(h, string(it.body))
		}
		for _, seq := range [][]int{p.warm, p.ops} {
			writeInt(h, len(seq))
			for _, i := range seq {
				writeInt(h, i)
			}
		}
	})
}

func (p *prefixPlan) digest() [32]byte {
	return digest(func(h hash.Hash) {
		for _, ops := range [][]prefixOp{p.warm, p.ops} {
			writeInt(h, len(ops))
			for _, op := range ops {
				writeStr(h, string(op.body()))
			}
		}
	})
}
