package workload

import (
	"reflect"
	"testing"

	"repro/internal/binimg"
	"repro/internal/kernel"
	"repro/internal/vm"
)

// TestStoragePlanShape pins the storage scenario graph every walker
// shares: node order, routing after the ISR and the DPC drain, and the
// linear fallback.
func TestStoragePlanShape(t *testing.T) {
	img := &binimg.Image{Device: binimg.PCIDescriptor{Class: binimg.ClassStorage}}
	plan := Build(img, "")
	var names []string
	for _, n := range plan {
		names = append(names, n.Name)
	}
	want := []string{"DriverEntry", "Initialize", "Read", "Write", "ISR", "CancelIo",
		"Suspend", "Resume", "SurpriseRemoval", "DPC", "RemoveDevice", "Halt"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("plan = %v, want %v", names, want)
	}

	s := &vm.State{Kernel: kernel.NewKState()}
	if got := plan.Next(nil, 4, s); !reflect.DeepEqual(got, []int{5, 6, 8}) {
		t.Errorf("ISR routes to %v, want the three alternatives", got)
	}
	if got := plan.Next(nil, 9, s); !reflect.DeepEqual(got, []int{11}) {
		t.Errorf("drain routes a present device to %v, want Halt", got)
	}
	kernel.Of(s).Removed = true
	if got := plan.Next(nil, 9, s); !reflect.DeepEqual(got, []int{10}) {
		t.Errorf("drain routes a removed device to %v, want RemoveDevice", got)
	}
	if got := plan.Next(nil, 11, s); len(got) != 0 {
		t.Errorf("Halt routes to %v, want nothing", got)
	}

	if linear := Build(img, ScenarioLinear); len(linear) != 7 || linear[5].Name != "DPC" {
		t.Errorf("linear storage plan has %d nodes", len(linear))
	}
}
