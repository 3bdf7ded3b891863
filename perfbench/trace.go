package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	goruntime "runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// span is one call the benchmark made into a layer of the program.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root span
	Run    string  `json:"run"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the run started
	End    float64 `json:"end_s"`
}

// tracer times the benchmark's calls into the program. Every call is timed;
// only a traced run keeps the spans (in memory, written out at the end).
// It is used from the benchmark's driving goroutine only.
type tracer struct {
	on    bool
	run   string
	t0    time.Time
	spans []span
	stack []int
}

func newTracer(on bool, run string) *tracer {
	return &tracer{on: on, run: run, t0: time.Now()}
}

// begin opens a span; the returned function closes it and returns its
// duration.
func (t *tracer) begin(name string) func() time.Duration {
	start := time.Now()
	if !t.on {
		return func() time.Duration { return time.Since(start) }
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name,
		Start: start.Sub(t.t0).Seconds()})
	id := len(t.spans)
	t.stack = append(t.stack, id)
	return func() time.Duration {
		end := time.Now()
		t.spans[id-1].End = end.Sub(t.t0).Seconds()
		t.stack = t.stack[:len(t.stack)-1]
		return end.Sub(start)
	}
}

// cpuNow returns the CPU time (user and system) the process has used.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler tracks the peak live Go heap: the bytes the latest garbage
// collection marked live, polled from runtime/metrics (which does not stop
// the world). Live bytes, unlike heap in use, do not swing with where a
// collection happened to fall, so the peak is a property of the program.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.observe()
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for {
		p := h.peak.Load()
		if v <= p || h.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// reset collects garbage and restarts peak tracking from what is live.
func (h *heapSampler) reset() {
	goruntime.GC()
	h.peak.Store(0)
	h.observe()
}

// peakMB collects garbage, so what the caller still holds counts, and
// returns the peak since the last reset, in MiB.
func (h *heapSampler) peakMB() float64 {
	goruntime.GC()
	h.observe()
	return float64(h.peak.Load()) / (1 << 20)
}

func (h *heapSampler) close() {
	close(h.stop)
	<-h.done
}

// profiledPackages are the program packages the traced run attributes CPU
// time to. Samples in other program packages count as other_internal, the
// Go runtime (scheduler, GC, maps, allocation) as go_runtime, the JSON codec
// and the HTTP stack as encoding_json and net_http, and the rest (other
// standard library, the benchmark itself) as other.
var profiledPackages = []string{
	"admission", "advisor", "cluster", "epoch", "grouping", "master",
	"monitor", "mppdb", "queries", "recovery", "replay", "router",
	"runtime", "service", "sim", "telemetry", "tenant", "workload",
}

// cpuProfile is a running CPU profile written to a file.
type cpuProfile struct {
	path string
	f    *os.File
}

func startCPUProfile(path string) (*cpuProfile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &cpuProfile{path: path, f: f}, nil
}

// stop ends the profile and returns each package's share of the flat CPU
// samples, in percent, read with `go tool pprof -top`.
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return nil, err
	}
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", p.path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return cpuShares(out)
}

// cpuShares sums the flat% column of `go tool pprof -top` output by package.
func cpuShares(top []byte) (map[string]float64, error) {
	shares := map[string]float64{"other_internal": 0, "go_runtime": 0, "encoding_json": 0, "net_http": 0, "other": 0}
	for _, p := range profiledPackages {
		shares[p] = 0
	}
	sc := bufio.NewScanner(bytes.NewReader(top))
	header := false
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 5 && fields[0] == "flat" && fields[1] == "flat%" {
			header = true
			continue
		}
		if !header || len(fields) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(fields[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %v", sc.Text(), err)
		}
		shares[packageOf(strings.Join(fields[5:], " "))] += pct
	}
	if !header {
		return nil, fmt.Errorf("pprof printed no samples table")
	}
	return shares, nil
}

// packageOf maps a profiled function name to its share bucket.
func packageOf(fn string) string {
	const prefix = "repro/internal/"
	if rest, ok := strings.CutPrefix(fn, prefix); ok {
		pkg := rest
		if i := strings.IndexByte(pkg, '.'); i >= 0 {
			pkg = pkg[:i]
		}
		i := sort.SearchStrings(profiledPackages, pkg)
		if i < len(profiledPackages) && profiledPackages[i] == pkg {
			return pkg
		}
		return "other_internal"
	}
	switch {
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/"):
		return "go_runtime"
	case strings.HasPrefix(fn, "encoding/json."):
		return "encoding_json"
	case strings.HasPrefix(fn, "net/http."):
		return "net_http"
	}
	return "other"
}
