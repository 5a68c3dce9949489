package main

import (
	"fmt"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/asm"
	"repro/internal/binimg"
	"repro/internal/corpus"
)

// pollEvery is how often a bug watcher samples a running session.
const pollEvery = time.Millisecond

// expectedBugs returns the Table 2 classes planted in a corpus driver,
// one per planted instance.
func expectedBugs(driver string) []string {
	spec, ok := corpus.Get(driver)
	if !ok {
		return nil
	}
	return spec.ExpectedBugs
}

// classSet returns the distinct classes in list.
func classSet(list []string) map[string]bool {
	out := make(map[string]bool, len(list))
	for _, c := range list {
		out[c] = true
	}
	return out
}

// sameMultiset reports whether a and b hold the same strings with the
// same multiplicities.
func sameMultiset(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	x := append([]string(nil), a...)
	y := append([]string(nil), b...)
	sort.Strings(x)
	sort.Strings(y)
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// covers reports whether got holds every class in want.
func covers(got []string, want map[string]bool) bool {
	have := classSet(got)
	for c := range want {
		if !have[c] {
			return false
		}
	}
	return true
}

// poller calls fn every pollEvery on its own goroutine until fn returns
// false or stop is called.
type poller struct {
	quit chan struct{}
	wg   sync.WaitGroup
}

func poll(fn func() bool) *poller {
	p := &poller{quit: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(pollEvery)
		defer t.Stop()
		for fn() {
			select {
			case <-p.quit:
				return
			case <-t.C:
			}
		}
	}()
	return p
}

// stop ends the polling and waits for the goroutine to exit.
func (p *poller) stop() {
	close(p.quit)
	p.wg.Wait()
}

// watcher polls a running session's bug classes and remembers when they
// first covered the expected set.
type watcher struct {
	start time.Time
	p     *poller
	found time.Duration // -1 until covered; written by the polling goroutine
}

// watch starts polling classes.
func watch(want map[string]bool, classes func() []string) *watcher {
	w := &watcher{start: time.Now(), found: -1}
	w.p = poll(func() bool {
		if covers(classes(), want) {
			w.found = time.Since(w.start)
			return false
		}
		return true
	})
	return w
}

// done stops polling and returns how long the session took to cover the
// expected classes. A session that covered them after the last sample is
// charged its full duration; one that never did returns ok=false.
func (w *watcher) done(classes func() []string, want map[string]bool) (time.Duration, bool) {
	end := time.Since(w.start)
	w.p.stop()
	if w.found >= 0 {
		return w.found, true
	}
	if covers(classes(), want) {
		return end, true
	}
	return end, false
}

// assemble builds the buggy variant of each driver from source, bypassing
// corpus.Build's process-wide cache so every round pays for assembly.
func assemble(drivers []string) (map[string]*binimg.Image, error) {
	out := make(map[string]*binimg.Image, len(drivers))
	for _, d := range drivers {
		if out[d] != nil {
			continue
		}
		spec, ok := corpus.Get(d)
		if !ok {
			return nil, fmt.Errorf("unknown corpus driver %q", d)
		}
		img, err := asm.Assemble(spec.Source(corpus.Buggy))
		if err != nil {
			return nil, fmt.Errorf("assembling %s: %w", d, err)
		}
		out[d] = img
	}
	return out, nil
}

// leaders returns the image's static basic-block leaders as a set.
func leaders(img *binimg.Image) map[uint32]bool {
	out := make(map[uint32]bool)
	for _, pc := range binimg.StaticBlocks(img) {
		out[pc] = true
	}
	return out
}

// splitLeaders counts the covered PCs that are, and are not, static
// leaders.
func splitLeaders(covered []uint32, lead map[uint32]bool) (in, out int) {
	for _, pc := range covered {
		if lead[pc] {
			in++
		} else {
			out++
		}
	}
	return in, out
}

// countLeaders splits per-driver sets of covered PCs into static leaders
// and other PCs, summed over drivers.
func countLeaders(covered map[string]map[uint32]bool, imgs map[string]*binimg.Image) (in, out int) {
	for d, set := range covered {
		pcs := make([]uint32, 0, len(set))
		for pc := range set {
			pcs = append(pcs, pc)
		}
		var lead map[uint32]bool
		if img := imgs[d]; img != nil {
			lead = leaders(img)
		}
		i, o := splitLeaders(pcs, lead)
		in += i
		out += o
	}
	return in, out
}

func describe(classes []string) string {
	s := append([]string(nil), classes...)
	sort.Strings(s)
	return "[" + strings.Join(s, ", ") + "]"
}

// memSampler tracks the peak memory the Go runtime has in use — mapped
// memory minus heap spans that are free, whether or not they were
// released to the OS — sampled every pollEvery while a round runs. Unlike
// the process's peak RSS, it falls again once a round's garbage is
// collected, so every round has its own peak.
type memSampler struct {
	p    *poller
	peak uint64 // written by the polling goroutine until done returns
}

var memMetrics = []string{
	"/memory/classes/total:bytes",
	"/memory/classes/heap/released:bytes",
	"/memory/classes/heap/free:bytes",
}

// sampleMemory starts sampling.
func sampleMemory() *memSampler {
	m := &memSampler{}
	s := make([]metrics.Sample, len(memMetrics))
	for i, name := range memMetrics {
		s[i].Name = name
	}
	m.p = poll(func() bool {
		metrics.Read(s)
		if b := s[0].Value.Uint64() - s[1].Value.Uint64() - s[2].Value.Uint64(); b > m.peak {
			m.peak = b
		}
		return true
	})
	return m
}

// done stops sampling and returns the peak in MiB.
func (m *memSampler) done() float64 {
	m.p.stop()
	return float64(m.peak) / (1 << 20)
}
