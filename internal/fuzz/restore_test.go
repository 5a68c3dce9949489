package fuzz

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/binimg"
	"repro/internal/corpus"
	"repro/internal/exerciser"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/vm"
)

// restoreStep is one execution of TestRestoreInPlaceBitIdentical's
// sequence: Run, or RunTraced when traced is set.
type restoreStep struct {
	feed   *Feed
	traced bool
}

// peekBest returns the snapshot SnapFabric.best would serve feed, without
// moving it to the recency front or counting the lookup.
func peekBest(f *SnapFabric, feed *Feed) *snapshot {
	var best *snapshot
	for _, sh := range []*snapShard{&f.shards[shardIndex(feed.Data)], &f.wild} {
		sh.mu.Lock()
		for _, sn := range sh.snaps {
			if (best == nil || sn.steps > best.steps) && sn.matches(feed) {
				best = sn
			}
		}
		sh.mu.Unlock()
	}
	return best
}

// snapFeed returns a feed that replays sn's boot prefix and then reads a
// zero data tail.
func snapFeed(sn *snapshot) *Feed {
	return &Feed{
		Data:  append(append([]byte(nil), sn.data...), make([]byte, 64)...),
		Forks: append([]byte(nil), sn.forks...),
		IRQ:   append([]uint64(nil), sn.irq...),
	}
}

// sameSnap reports whether x and y are the same snapshot: the same stage
// over the same boot prefix. A run that passes a gate records its snapshot
// again, replacing the fabric's entry for that prefix, so identity is by
// prefix rather than by pointer.
func sameSnap(x, y *snapshot) bool {
	return x != nil && y != nil && x.samePrefix(y)
}

// restoreSequence builds the feed sequence of TestRestoreInPlaceBitIdentical.
// It starts on an empty fabric with warmFeeds, whose first execution is a
// cold miss, and then runs feeds a scout executor picked on a fabric warmed
// by the same warmFeeds: two feeds that resume different snapshots, a feed
// that crashes after a warm resume (found by mutating those two on a cold
// executor), and a feed whose boot decides the whole execution, which the
// sequence runs twice so that the second run is served from the terminal
// memo the first one records.
func restoreSequence(t *testing.T, img *binimg.Image, warmFeeds []*Feed) []restoreStep {
	t.Helper()
	o := DefaultOptions()
	o.Persist = true
	o.Fabric = NewSnapFabric()
	scout := NewExecutor(img, nil, o)
	for _, f := range warmFeeds {
		scout.Run(f)
	}
	fab := o.Fabric

	var resumable []*Feed
	var served []*snapshot
	shards := []*snapShard{&fab.wild}
	for i := range fab.shards {
		shards = append(shards, &fab.shards[i])
	}
	for _, sh := range shards {
		for _, sn := range sh.snaps {
			if sn.state == nil {
				continue
			}
			f := snapFeed(sn)
			got := peekBest(fab, f)
			if got.state == nil || slices.ContainsFunc(served, func(o *snapshot) bool { return sameSnap(o, got) }) {
				continue
			}
			served = append(served, got)
			resumable = append(resumable, f)
		}
	}
	if len(resumable) < 2 {
		t.Fatalf("warmed fabric serves %d distinct resumable snapshots, want 2", len(resumable))
	}
	a, b := resumable[0], resumable[1]

	mu := NewMutator(17)
	var crash, memo *Feed
	probe := NewExecutor(img, nil, DefaultOptions())
	for i := 0; i < 5000 && crash == nil; i++ {
		f := mu.Mutate(resumable[i%2], nil)
		if sn := peekBest(fab, f); sn != nil && sn.state != nil && probe.Run(f).Crash != nil {
			crash = f
		}
	}
	for i := 0; i < 20000 && memo == nil; i++ {
		f := mu.Generate()
		if i%2 == 1 {
			f = mu.Mutate(&Feed{Data: make([]byte, 64)}, nil)
		}
		scout.Run(f)
		if sn := peekBest(fab, f); sn != nil && sn.stage == stageTerminal {
			memo = f
		}
	}
	if crash == nil || memo == nil {
		t.Fatalf("no feed found for a warm crash (%v) or a terminal memo (%v)", crash != nil, memo != nil)
	}
	var seq []restoreStep
	for _, f := range warmFeeds {
		seq = append(seq, restoreStep{feed: f})
	}
	return append(seq,
		restoreStep{feed: memo},
		restoreStep{feed: a}, restoreStep{feed: a}, restoreStep{feed: b},
		restoreStep{feed: a}, restoreStep{feed: b},
		restoreStep{feed: crash}, restoreStep{feed: a},
		restoreStep{feed: memo}, restoreStep{feed: b},
		restoreStep{feed: a, traced: true}, restoreStep{feed: b},
		restoreStep{feed: crash, traced: true}, restoreStep{feed: crash},
		restoreStep{feed: b}, restoreStep{feed: b},
	)
}

// sameValue is reflect.DeepEqual for the kernel state, except
// that a nil slice or map equals an empty one: a restore reuses the kept
// state's emptied storage where a fresh copy has none, and no code tells
// the two apart.
func sameValue(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameValue(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		for it := a.MapRange(); it.Next(); {
			if v := b.MapIndex(it.Key()); !v.IsValid() || !sameValue(it.Value(), v) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}

// compareFinal asserts two executions ended in the same state: registers,
// path context, kernel state, block counts, and the bytes of the stack,
// the driver's data and bss, and the kernel heap. It sees what a
// restore left stale even where the execution's result happens not to.
func compareFinal(t *testing.T, tag string, img *binimg.Image, a, b *vm.State) {
	t.Helper()
	if a.PC != b.PC || a.Status != b.Status || a.ICount != b.ICount || a.Depth != b.Depth ||
		a.InInterrupt != b.InInterrupt || a.EntryName != b.EntryName || a.BlockStart != b.BlockStart ||
		a.BlockCount() != b.BlockCount() || len(a.Constraints) != len(b.Constraints) {
		t.Fatalf("%s: final state %v vs %v", tag, a, b)
	}
	for r := uint8(0); r < isa.NumRegs; r++ {
		if a.Reg(r) != b.Reg(r) {
			t.Fatalf("%s: r%d = %v vs %v", tag, r, a.Reg(r), b.Reg(r))
		}
	}
	if !sameValue(reflect.ValueOf(a.Kernel), reflect.ValueOf(b.Kernel)) {
		t.Fatalf("%s: kernel state differs:\n%+v\n%+v", tag, a.Kernel, b.Kernel)
	}
	for pc := uint32(isa.ImageBase); pc < isa.ImageBase+uint32(len(img.Text)); pc += isa.InstrSize {
		if a.LoopCount(pc) != b.LoopCount(pc) {
			t.Fatalf("%s: block %#x counted %d vs %d", tag, pc, a.LoopCount(pc), b.LoopCount(pc))
		}
	}
	heapEnd := max(kernel.Of(a).NextHeap, kernel.Of(b).NextHeap)
	for _, r := range [][2]uint32{
		{isa.StackBase - isa.StackSize, isa.StackBase},
		{img.DataBase(), img.LimitVA()},
		{isa.HeapBase, heapEnd},
	} {
		x, okx := a.Mem.ReadBytesConcrete(r[0], r[1]-r[0])
		y, oky := b.Mem.ReadBytesConcrete(r[0], r[1]-r[0])
		if !okx || !oky || !bytes.Equal(x, y) {
			t.Fatalf("%s: memory [%#x, %#x) differs", tag, r[0], r[1])
		}
	}
}

// TestRestoreInPlaceBitIdentical: a warm execution that restores its
// snapshot into the executor's kept state (vm.Machine.ResumeInto) is
// bit-identical to one that resumes the snapshot into a fresh state. One
// executor runs a feed sequence; for each feed, a fresh executor runs the
// same feed, and every ExecResult field, the crash key and RunTraced's
// event chain must match, and so must the two executions' final states. The
// sequence resumes one snapshot twice in a row
// and alternates between snapshots, follows a crash with a warm execution,
// is served a terminal memo, misses the fabric, and runs RunTraced in
// between; the test fails unless each case happened, and unless the kept
// state was restored into.
//
// The two sides use twin fabrics, both empty at the start. A run records
// snapshots, so on one shared fabric the side that ran a feed second could
// resume what the first side recorded. The twins see the same lookups and
// records in the same order, so both sides resume the same snapshot at
// every step.
func TestRestoreInPlaceBitIdentical(t *testing.T) {
	for _, name := range []string{"rtl8029", "amd-pcnet", "promise-ultra133"} {
		t.Run(name, func(t *testing.T) {
			img, err := corpus.Build(name, corpus.Buggy)
			if err != nil {
				t.Fatal(err)
			}
			seq := restoreSequence(t, img, persistFeeds(NewMutator(5), 40))
			twin := func() Options {
				o := DefaultOptions()
				o.Persist = true
				o.Fabric = NewSnapFabric()
				return o
			}
			keptOpts, freshOpts := twin(), twin()

			nblocks := len(binimg.StaticBlocks(img))
			kept := NewExecutor(img, exerciser.NewCoverage(nblocks), keptOpts)
			freshCov := exerciser.NewCoverage(nblocks)
			var same, alternate, crashThenWarm, memo, cold, traced, reused int
			var last, before *snapshot
			prevCrash := false
			for i, st := range seq {
				sn := peekBest(keptOpts.Fabric, st.feed)
				prevKept := kept.kept
				fresh := NewExecutor(img, freshCov, freshOpts)
				var a, b *ExecResult
				if st.traced {
					a, b = kept.RunTraced(st.feed), fresh.RunTraced(st.feed)
				} else {
					a, b = kept.Run(st.feed), fresh.Run(st.feed)
				}
				tag := fmt.Sprintf("step %d", i)
				compareExec(t, tag, a, b)
				ra, rb := *a, *b
				ra.Trace, rb.Trace = nil, nil
				if !reflect.DeepEqual(ra, rb) {
					t.Fatalf("%s: in-place restore %+v, fresh resume %+v", tag, ra, rb)
				}
				if a.Trace != nil && len(traceSigs(a.Trace)) == 0 {
					t.Fatalf("%s: empty trace chain", tag)
				}
				if fresh.kept == nil { // served from a terminal memo: nothing ran
					if kept.kept != prevKept {
						t.Fatalf("%s: a memoized execution replaced the kept state", tag)
					}
				} else {
					compareFinal(t, tag, img, kept.kept, fresh.kept)
				}

				switch {
				case st.traced:
					traced++
					if a.Trace == nil {
						t.Fatalf("%s: RunTraced returned no trace", tag)
					}
				case sn == nil:
					cold++
				case sn.stage == stageTerminal:
					memo++
				default:
					if !a.Warm {
						t.Fatalf("%s: feed with a resumable snapshot ran cold", tag)
					}
					if prevKept != nil && kept.kept == prevKept {
						reused++
					}
					if prevCrash {
						crashThenWarm++
					}
					switch {
					case sameSnap(sn, last):
						same++
					case sameSnap(sn, before):
						alternate++
					}
					before, last = last, sn
				}
				prevCrash = a.Crash != nil
			}
			t.Logf("%d steps: %d same-snapshot, %d alternating, %d warm after a crash, %d memo, %d cold, %d traced, %d restored in place",
				len(seq), same, alternate, crashThenWarm, memo, cold, traced, reused)
			if same == 0 || alternate == 0 || crashThenWarm == 0 || memo == 0 || cold == 0 || traced == 0 || reused == 0 {
				t.Fatal("the sequence missed a case it must cover")
			}
		})
	}
}
