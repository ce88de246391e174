package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// runtimeCounters is a snapshot of the Go runtime's cumulative allocation
// and GC counters, read without stopping the world.
type runtimeCounters struct {
	allocBytes uint64
	gcCycles   uint64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return runtimeCounters{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

func (a runtimeCounters) since(b runtimeCounters) runtimeCounters {
	return runtimeCounters{allocBytes: a.allocBytes - b.allocBytes, gcCycles: a.gcCycles - b.gcCycles}
}

// liveHeap collects garbage and returns the bytes still live on the heap.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// release drops what a finished set-up left behind, so the next one starts
// from the same heap.
func release() {
	runtime.GC()
	debug.FreeOSMemory()
}

// peakRSSMB is the process's VmHWM (peak resident set) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		fatalf("peak RSS: %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) == 2 && f[1] == "kB" {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	fatalf("peak RSS: no VmHWM line in /proc/self/status")
	return 0
}

// response is one reply of the in-process server.
type response struct {
	status int
	body   []byte
}

// serve sends one request through the server's handler in-process and
// returns the reply and the duration of the ServeHTTP call alone. With a
// tracer the call is the span "server.serve" of request req.
func serve(h http.Handler, t *tracer, req int, method, path string, body []byte) (response, int, int64) {
	r := httptest.NewRequest(method, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	id, ns := t.timed("server.serve", req, -1, func() { h.ServeHTTP(w, r) })
	return response{status: w.Code, body: w.Body.Bytes()}, id, ns
}

// wirePayload is the part of the server's report payload the checks read.
type wirePayload struct {
	Verdict    string `json:"verdict"`
	Member     bool   `json:"member"`
	Bits       int    `json:"bits"`
	Messages   int    `json:"messages"`
	Processors int    `json:"processors"`
}

func (p wirePayload) outcome() outcome {
	return outcome{verdict: p.Verdict, bits: p.Bits, messages: p.Messages}
}

// provenance describes where and on what a run was taken.
func provenance(loadStart string) map[string]any {
	return map[string]any{
		"commit":     commit(),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"load_start": loadStart,
		"load_end":   loadAvg(),
	}
}

func loadAvg() string {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	f := strings.Fields(string(data))
	if len(f) < 3 {
		return "unknown"
	}
	return strings.Join(f[:3], " ")
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the code under test: the git commit when the checkout is a
// repository, and otherwise a digest of every Go source and go.mod in it.
func commit() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(f))
		h.Write(data)
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
