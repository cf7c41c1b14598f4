package unfolding

import (
	"fmt"
	"slices"
	"testing"

	"punt/internal/benchgen"
	"punt/internal/bitvec"
	"punt/internal/stg"
)

// refConflict returns the pairwise conflict query the Causality index
// replaced, kept as its oracle: e and f are in conflict when some condition is
// consumed by an event of [e] and by a different event of [f].  As before, a
// segment in which no condition has two consumers answers false at once.
func refConflict(u *Unfolding) func(e, f *Event) bool {
	anyChoice := false
	for _, c := range u.Conditions {
		anyChoice = anyChoice || len(c.Consumers) > 1
	}
	return func(e, f *Event) bool {
		if !anyChoice || e == f || e.IsRoot || f.IsRoot || u.Before(e, f) || u.Before(f, e) {
			return false
		}
		consumedBy := map[int]int{}
		e.Local.forEach(func(id int) {
			for _, c := range u.Events[id].Preset {
				consumedBy[c.ID] = id
			}
		})
		conflict := false
		f.Local.forEach(func(id int) {
			for _, c := range u.Events[id].Preset {
				if other, ok := consumedBy[c.ID]; ok && other != id {
					conflict = true
				}
			}
		})
		return conflict
	}
}

// refConcurrentConditionEvent is the pairwise condition–event concurrency
// query KeepConcurrent replaced: f can fire while c stays marked.
func refConcurrentConditionEvent(u *Unfolding, inConflict func(e, f *Event) bool, c *Condition, f *Event) bool {
	if f.IsRoot {
		return false
	}
	for _, g := range c.Consumers {
		if g == f || f.Local.has(g.ID) {
			return false // c precedes f
		}
	}
	if c.Producer == f || c.Producer.Local.has(f.ID) {
		return false // f precedes c
	}
	return !inConflict(c.Producer, f)
}

// refNext is the pairwise next(e) that Causality.Next replaced: the
// instances of the signal after e that no other such instance precedes.
func refNext(u *Unfolding, e *Event, signal int) []*Event {
	var candidates, out []*Event
	for _, f := range u.EventsOfSignal(signal) {
		if f != e && u.Before(e, f) {
			candidates = append(candidates, f)
		}
	}
	for _, f := range candidates {
		minimal := true
		for _, g := range candidates {
			minimal = minimal && !u.Before(g, f)
		}
		if minimal {
			out = append(out, f)
		}
	}
	return out
}

type causalitySpec struct {
	name string
	g    *stg.STG
}

// causalityCorpus is the Table 1 suite, the four Figure 6 specs, the paper's
// Figure 1, a choice controller and 50 random controllers of 4 to 12
// signals.  Figure 1, the choice controller and two of the random specs have
// conditions with two consumers, so they exercise the conflict sets.
func causalityCorpus() []causalitySpec {
	var specs []causalitySpec
	for _, e := range benchgen.Table1Suite() {
		specs = append(specs, causalitySpec{e.Name, e.Build()})
	}
	for _, n := range []int{22, 34, 50} {
		specs = append(specs, causalitySpec{fmt.Sprintf("pipeline-%d", n), benchgen.MullerPipelineWithSignals(n)})
	}
	specs = append(specs,
		causalitySpec{"counterflow", benchgen.CounterflowPipeline()},
		causalitySpec{"fig1", benchgen.PaperFig1()},
		causalitySpec{"choice-16", benchgen.ChoiceController("choice-16", 16, 11)})
	for s := int64(1); s <= 50; s++ {
		specs = append(specs, causalitySpec{fmt.Sprintf("random-%d", s), benchgen.RandomSTG(s, int(4+s%9))})
	}
	return specs
}

// TestCausalityMatchesPairwise checks every set of the index against the
// brute-force pairwise definitions, for every pair of events of the corpus,
// every condition–event pair for KeepConcurrent and every event–signal pair
// for Next.
func TestCausalityMatchesPairwise(t *testing.T) {
	conflicts := 0
	for _, spec := range causalityCorpus() {
		u := build(t, spec.g)
		cz := u.Causality()
		inConflict := refConflict(u)
		n := len(u.Events)
		all := bitvec.New(n)
		for i := 0; i < n; i++ {
			all.Set(i, true)
		}
		past, added := bitvec.New(n), bitvec.New(n)
		for _, e := range u.Events {
			past.CopyFrom(all)
			cz.AndNotPast(past, e)
			added.Clear()
			cz.OrPast(added, e)
			future, conflict := cz.Future(e), cz.Conflict(e)
			for _, f := range u.Events {
				where := func() string { return fmt.Sprintf("%s: %s vs %s", spec.name, u.EventName(e), u.EventName(f)) }
				if got, want := future.Get(f.ID), e == f || u.Before(e, f); got != want {
					t.Fatalf("%s: f in Future(e) = %v, want %v", where(), got, want)
				}
				if got, want := !past.Get(f.ID), f == e || !f.IsRoot && u.Before(f, e); got != want {
					t.Fatalf("%s: f cleared by AndNotPast(e) = %v, want %v", where(), got, want)
				}
				if got, want := added.Get(f.ID), f == e || !f.IsRoot && u.Before(f, e); got != want {
					t.Fatalf("%s: f added by OrPast(e) = %v, want %v", where(), got, want)
				}
				want := inConflict(e, f)
				if got := conflict.Get(f.ID); got != want {
					t.Fatalf("%s: f in Conflict(e) = %v, want %v", where(), got, want)
				}
				if want {
					conflicts++
				}
			}
		}
		conc := bitvec.New(n)
		for _, c := range u.Conditions {
			conc.CopyFrom(all)
			cz.KeepConcurrent(conc, c)
			for _, f := range u.Events {
				if got, want := conc.Get(f.ID), refConcurrentConditionEvent(u, inConflict, c, f); got != want {
					t.Fatalf("%s: %s concurrent to %s = %v, want %v",
						spec.name, u.EventName(f), u.ConditionName(c), got, want)
				}
			}
		}
		for sig := 0; sig < spec.g.NumSignals(); sig++ {
			mask := cz.SignalEvents(sig)
			for _, e := range u.Events {
				want := !e.IsRoot && !e.label.IsDummy && e.label.Signal == sig
				if mask.Get(e.ID) != want {
					t.Fatalf("%s: %s in SignalEvents(%d) = %v", spec.name, u.EventName(e), sig, !want)
				}
				if got, want := cz.Next(e, sig), refNext(u, e, sig); !slices.Equal(got, want) {
					t.Fatalf("%s: Next(%s, %d) = %v, want %v", spec.name, u.EventName(e), sig, got, want)
				}
			}
		}
	}
	if conflicts == 0 {
		t.Fatal("the corpus exercises no conflict")
	}
}
