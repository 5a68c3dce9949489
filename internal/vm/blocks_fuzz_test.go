package vm

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/expr"
	"repro/internal/isa"
)

// blockFuzzPC maps two input bytes to a block PC.
func blockFuzzPC(a, b byte) uint32 {
	return isa.ImageBase + (uint32(a)<<8|uint32(b))*isa.InstrSize
}

// FuzzBlockTableMatchesMap checks the per-path block table against a plain
// map model, over random sequences of block visits, snapshots, resumes,
// retires and forks on a handful of states. Each 3-byte record is one
// operation: the low three bits of the first byte pick it, the rest of that
// byte picks the state or snapshot, and the other two bytes give the PC.
// A resume with the low bit of the second byte set restores the snapshot
// into the live state the third byte picks (Machine.ResumeInto), whose
// table holds stale entries of the same or another size class. Every
// VisitBlock return, LoopCount and BlockCount must match the model, and a
// snapshot's counts must never change, however often it is resumed.
func FuzzBlockTableMatchesMap(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 1, 0, 0, 2, 3, 0, 0, 4, 0, 0, 0, 0, 1, 0, 0, 9})
	f.Add([]byte{2, 0, 200, 3, 0, 0, 4, 0, 0, 2, 1, 255, 5, 0, 0, 4, 0, 0, 0, 0, 7})
	f.Add([]byte{0, 0, 5, 6, 0, 0, 8, 0, 5, 0, 0, 5, 3, 0, 0, 4, 0, 0, 12, 0, 5, 13, 0, 0})

	img, err := asm.Assemble(".entry e\n.text\ne: ret\n")
	if err != nil {
		f.Fatal(err)
	}
	m := NewMachine(img, expr.NewSymbolTable(), nil)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*200 {
			ops = ops[:3*200]
		}
		type path struct {
			s     *State
			model map[uint32]uint64
		}
		clone := func(in map[uint32]uint64) map[uint32]uint64 {
			out := make(map[uint32]uint64, len(in))
			for pc, n := range in {
				out[pc] = n
			}
			return out
		}
		check := func(tag string, p path) {
			t.Helper()
			if got := p.s.BlockCount(); got != len(p.model) {
				t.Fatalf("%s: BlockCount %d, model %d", tag, got, len(p.model))
			}
			for pc, n := range p.model {
				if got := p.s.LoopCount(pc); got != n {
					t.Fatalf("%s: LoopCount(%#x) = %d, model %d", tag, pc, got, n)
				}
			}
		}
		visit := func(p path, pc uint32) {
			t.Helper()
			p.model[pc]++
			if got := p.s.VisitBlock(pc); got != p.model[pc] {
				t.Fatalf("VisitBlock(%#x) = %d, model %d", pc, got, p.model[pc])
			}
		}

		live := []path{{m.NewRootState(), map[uint32]uint64{}}}
		var snaps []path
		for i := 0; i+2 < len(ops); i += 3 {
			sel, a, b := int(ops[i]>>3), ops[i+1], ops[i+2]
			p := live[sel%len(live)]
			switch ops[i] & 7 {
			case 0, 1:
				visit(p, blockFuzzPC(a, b))
			case 2: // a run of b+1 blocks, mostly new: grows the table
				for k := 0; k <= int(b); k++ {
					visit(p, blockFuzzPC(a, byte(k)))
				}
			case 3:
				snaps = append(snaps, path{m.SnapshotState(p.s), clone(p.model)})
				check("running state after snapshot", p)
			case 4:
				if len(snaps) == 0 {
					continue
				}
				sn := snaps[sel%len(snaps)]
				if a&1 != 0 {
					j := int(b) % len(live)
					s := m.ResumeInto(live[j].s, sn.s)
					if s != live[j].s {
						t.Fatal("resume did not restore into a live leaf state")
					}
					live[j] = path{s, clone(sn.model)}
					check("resume into a reused state", live[j])
					continue
				}
				c := path{m.ResumeState(sn.s), clone(sn.model)}
				check("resume", c)
				live = append(live, c)
			case 5:
				if len(live) == 1 {
					continue
				}
				p.s.Retire()
				live = append(live[:sel%len(live)], live[sel%len(live)+1:]...)
				continue
			case 6:
				live = append(live, path{m.ForkState(p.s), map[uint32]uint64{}})
			case 7:
				if got, want := p.s.LoopCount(blockFuzzPC(a, b)), p.model[blockFuzzPC(a, b)]; got != want {
					t.Fatalf("LoopCount(%#x) = %d, model %d", blockFuzzPC(a, b), got, want)
				}
			}
			if got := p.s.BlockCount(); got != len(p.model) {
				t.Fatalf("BlockCount %d, model %d", got, len(p.model))
			}
		}
		for _, p := range live {
			check("live state", p)
		}
		for _, sn := range snaps {
			check("snapshot", sn)
		}
	})
}
