package sim_test

// One placement has three forms: ids (Exec.RunChoices), sorted names with
// parallel assignments (Exec.RunIndexed), and a map (Exec.Run). All three
// go through one check (the names are interned to ids first), and must give
// one answer: the same Result for a valid placement, the same first error
// for an invalid one.

import (
	"fmt"
	"reflect"
	"regexp"
	"slices"
	"testing"

	"deep/internal/dag"
	"deep/internal/sched"
	"deep/internal/sim"
	"deep/internal/workload"
)

// choiceClusters are the clusters FuzzChoicesMatchIndexed draws from: the
// calibrated testbed, its layered variant, and scaled testbeds with twin
// devices (so the class rows are shared) and ARM boxes.
var choiceClusters = []func() *sim.Cluster{
	workload.Testbed,
	layeredTestbed,
	func() *sim.Cluster { return workload.ScaledTestbed(2) },
	func() *sim.Cluster { return workload.ScaledTestbed(5) },
}

// idName is the name an out-of-range id stands for in the named forms; an
// error naming it reads as the id-form error once its quotes are dropped
// (quotedID).
func idName(id int32) string { return fmt.Sprintf("#%d", id) }

var quotedID = regexp.MustCompile(`"(#-?[0-9]+)"`)

// runForm is one form's answer: a detached Result, or the error's text.
type runForm struct {
	res *sim.Result
	err string
}

func answer(res *sim.Result, err error) runForm {
	if err != nil {
		return runForm{err: err.Error()}
	}
	return runForm{res: res.Clone()}
}

// FuzzChoicesMatchIndexed draws an app, a cluster and a placement in id
// form, and runs it in all three forms on one Exec. picks holds two bytes
// per microservice (device, registry): below 240 an id in range, otherwise
// -1 or the table's length, names no device or registry has. An empty picks
// takes DEEP's placement, so valid placements are common. drop, when
// nonzero, leaves microservice drop-1 (mod n) out of the named forms and the
// last choice out of the id form.
func FuzzChoicesMatchIndexed(f *testing.F) {
	f.Add(int64(1), []byte{}, uint8(0), false)
	f.Add(int64(2), []byte{}, uint8(0), true)
	f.Add(int64(3), []byte{0, 0, 1, 1, 2, 0, 3, 1}, uint8(0), false)
	f.Add(int64(4), []byte{250, 0, 1, 245, 7, 3}, uint8(0), false)
	f.Add(int64(6), []byte{5, 1, 9, 0}, uint8(2), true)
	f.Add(int64(7), []byte{}, uint8(1), false)
	f.Fuzz(func(t *testing.T, seed int64, picks []byte, drop uint8, jitter bool) {
		cluster := choiceClusters[uint64(seed)%uint64(len(choiceClusters))]()
		var app *dag.App
		if seed%3 == 0 {
			app = workload.Apps()[int(uint64(seed)/3%2)]
		} else {
			app = generated(t, 1+int(uint64(seed)%12), seed)
			if len(app.Microservices) > 1 {
				// ARM boxes cannot run it: infeasible choices are drawn too.
				app = withArches(t, app, app.Microservices[1].Name, []dag.Arch{dag.AMD64})
			}
		}
		plan := sim.CompilePlan(app, cluster)
		tab := plan.Table()
		nd, nr := int32(tab.NumDevices()), int32(tab.NumRegistries())
		names := make([]string, len(app.Microservices))
		for i, m := range app.Microservices {
			names[i] = m.Name
		}
		// Ids ascend in name order, and names are unique.
		slices.Sort(names)

		choices := make([]sim.Choice, len(names))
		if len(picks) == 0 {
			p, err := sched.Schedule(sched.NewDEEP(), app, cluster)
			if err != nil {
				return
			}
			for i, name := range names {
				a := p[name]
				d, _ := tab.DevID(a.Device)
				r, _ := tab.RegID(a.Registry)
				choices[i] = sim.Choice{Device: d, Registry: r}
			}
		} else {
			id := func(b byte, n int32) int32 {
				switch {
				case b < 240:
					return int32(b) % n
				case b < 248:
					return -1
				}
				return n
			}
			for i := range choices {
				k := 2 * i % len(picks)
				choices[i] = sim.Choice{Device: id(picks[k], nd), Registry: id(picks[(k+1)%len(picks)], nr)}
			}
		}

		assigns := make([]sim.Assignment, len(names))
		placement := make(sim.Placement, len(names))
		inRange := true
		for i, c := range choices {
			a := sim.Assignment{Device: idName(c.Device), Registry: idName(c.Registry)}
			if c.Device >= 0 && c.Device < nd {
				a.Device = tab.DevNames()[c.Device]
			} else {
				inRange = false
			}
			if c.Registry >= 0 && c.Registry < nr {
				a.Registry = tab.RegNames()[c.Registry]
			} else {
				inRange = false
			}
			assigns[i] = a
			placement[names[i]] = a
		}
		if drop != 0 {
			k := int(drop-1) % len(names)
			delete(placement, names[k])
			names = append(names[:k:k], names[k+1:]...)
			assigns = append(assigns[:k:k], assigns[k+1:]...)
			choices = choices[:len(choices)-1]
		}

		opts := sim.Options{Seed: seed}
		if jitter {
			opts.Jitter = 0.03
		}
		exec := sim.NewExec()
		byID := answer(exec.RunChoices(plan, choices, opts))
		byName := answer(exec.RunIndexed(plan, names, assigns, opts))
		byMap := answer(exec.Run(plan, placement, opts))
		if !reflect.DeepEqual(byName, byMap) {
			t.Fatalf("RunIndexed != Run(map)\nindexed: %+v\nmap:     %+v", byName, byMap)
		}
		switch {
		case drop != 0:
			if byID.err == "" || byName.err == "" {
				t.Fatalf("a placement short of one microservice ran: ids %q, names %q", byID.err, byName.err)
			}
		case !inRange:
			if want := quotedID.ReplaceAllString(byName.err, "$1"); byID.err != want {
				t.Fatalf("RunChoices error %q, named forms %q", byID.err, byName.err)
			}
		default:
			if !reflect.DeepEqual(byID, byName) {
				t.Fatalf("RunChoices != RunIndexed\nids:   %+v\nnames: %+v", byID, byName)
			}
		}
	})
}

// TestRunChoicesMatchesNamedCorpus holds RunChoices to Run on the
// equivalence corpus's placements, which the legacy port pins.
func TestRunChoicesMatchesNamedCorpus(t *testing.T) {
	for _, c := range corpus(t) {
		t.Run(c.name, func(t *testing.T) {
			cluster := c.cluster()
			placement, err := c.place(c.app, cluster)
			if err != nil {
				t.Fatal(err)
			}
			plan := sim.CompilePlan(c.app, cluster)
			tab := plan.Table()
			names := make([]string, 0, len(placement))
			for name := range placement {
				names = append(names, name)
			}
			slices.Sort(names)
			choices := make([]sim.Choice, len(names))
			for i, name := range names {
				d, _ := tab.DevID(placement[name].Device)
				r, _ := tab.RegID(placement[name].Registry)
				choices[i] = sim.Choice{Device: d, Registry: r}
			}
			exec := sim.NewExec()
			want := answer(exec.Run(plan, placement, sim.Options{}))
			if got := answer(exec.RunChoices(plan, choices, sim.Options{})); !reflect.DeepEqual(got, want) {
				t.Fatalf("RunChoices != Run\nids: %+v\nmap: %+v", got, want)
			}
		})
	}
}
