package simtest

import (
	"fmt"
	"slices"
)

// shrinkBudget bounds the number of candidate executions one shrink may
// spend. Scenarios are small, so the greedy pass almost always reaches
// a fixpoint well under it; the bound just keeps a pathological failure
// from turning CI into a soak run.
const shrinkBudget = 400

// shrink reduces a failing scenario to a minimal reproducer by greedy
// delta debugging over the schedule grammar: at each step it tries an
// ordered list of simplifications (fewer rounds, fewer clients, fewer
// faults, plainer knobs) and keeps the first candidate that still fails
// the SAME invariant, restarting from it. The process is a pure
// function of the input scenario — candidate order is fixed and
// execution is deterministic — so the same failure always shrinks to
// the same minimal schedule.
//
// It returns the minimal scenario and its failure (the original pair
// when nothing smaller reproduces). orig must be non-nil.
func (c *Checker) shrink(sc Scenario, orig *Failure) (Scenario, *Failure) {
	best, bestF := cloneScenario(sc), orig
	runs := 0
	reproduces := func(cand Scenario) *Failure {
		if err := cand.Validate(); err != nil {
			return nil
		}
		runs++
		c.met.shrinkRuns.Inc()
		if f := c.verify(cand); f != nil && f.Invariant == orig.Invariant {
			return f
		}
		return nil
	}
	for changed := true; changed && runs < shrinkBudget; {
		changed = false
		for _, cand := range candidates(best) {
			if runs >= shrinkBudget {
				break
			}
			if f := reproduces(cand); f != nil {
				best, bestF = cand, f
				c.met.shrinkSteps.Inc()
				changed = true
				break // greedy: restart the pass from the new best
			}
		}
	}
	return best, bestF
}

// candidates returns the ordered one-step simplifications of sc, most
// aggressive first. The order is fixed — shrink determinism depends on
// it.
func candidates(sc Scenario) []Scenario {
	var out []Scenario
	add := func(mut func(*Scenario)) {
		c := cloneScenario(sc)
		mut(&c)
		out = append(out, c)
	}

	// Fewer rounds first: halving wins big, decrementing mops up.
	if sc.Rounds > 1 {
		add(func(c *Scenario) { setRounds(c, c.Rounds/2) })
		add(func(c *Scenario) { setRounds(c, c.Rounds-1) })
	}
	// Drop whole clients (their forget entries go with them).
	if len(sc.Clients) > 1 {
		for i := range sc.Clients {
			i := i
			add(func(c *Scenario) { dropClient(c, i) })
		}
	}
	// Drop forget entries (an empty set skips the unlearn phase).
	for i := range sc.Forget {
		i := i
		add(func(c *Scenario) { c.Forget = slices.Delete(c.Forget, i, i+1) })
	}
	// Clear whole fault lists, then individual fault rounds.
	for i, cs := range sc.Clients {
		i := i
		if len(cs.CrashAt) > 0 {
			add(func(c *Scenario) { c.Clients[i].CrashAt = nil })
		}
		if len(cs.CorruptAt) > 0 {
			add(func(c *Scenario) { c.Clients[i].CorruptAt = nil })
		}
	}
	for i, cs := range sc.Clients {
		i := i
		for j := range cs.CrashAt {
			j := j
			add(func(c *Scenario) { c.Clients[i].CrashAt = slices.Delete(c.Clients[i].CrashAt, j, j+1) })
		}
		for j := range cs.CorruptAt {
			j := j
			add(func(c *Scenario) { c.Clients[i].CorruptAt = slices.Delete(c.Clients[i].CorruptAt, j, j+1) })
		}
	}
	// Per-client knob simplifications.
	for i, cs := range sc.Clients {
		i := i
		if cs.Join > 0 {
			add(func(c *Scenario) { c.Clients[i].Join = 0 })
		}
		if cs.Leave != -1 {
			add(func(c *Scenario) { c.Clients[i].Leave = -1 })
		}
		if cs.LocalSteps > 1 {
			add(func(c *Scenario) { c.Clients[i].LocalSteps = 0 })
		}
		if cs.BatchSize > 0 {
			add(func(c *Scenario) { c.Clients[i].BatchSize = 0 })
		}
		if cs.Samples > 1 {
			add(func(c *Scenario) {
				s := &c.Clients[i]
				s.Samples /= 2
				if s.BatchSize > s.Samples {
					s.BatchSize = s.Samples
				}
			})
		}
	}
	// Global knobs toward their plainest settings.
	if sc.SpillWindow != 0 {
		add(func(c *Scenario) { c.SpillWindow = 0 })
	}
	if sc.SaveLoadAt != -1 {
		add(func(c *Scenario) { c.SaveLoadAt = -1 })
	}
	if sc.Overlap != 0 {
		add(func(c *Scenario) { c.Overlap = 0 })
	}
	if sc.Quorum != 0 {
		add(func(c *Scenario) { c.Quorum = 0 })
	}
	if sc.Retries != 0 {
		add(func(c *Scenario) { c.Retries = 0 })
	}
	if sc.Parallelism != 0 {
		add(func(c *Scenario) { c.Parallelism = 0 })
	}
	if sc.PairSize > 1 {
		add(func(c *Scenario) { c.PairSize = 1 })
	}
	if sc.Hidden > 2 {
		add(func(c *Scenario) { c.Hidden = 2 })
	}
	if sc.Features > 2 {
		add(func(c *Scenario) { c.Features = 2 })
	}
	if sc.Classes > 2 {
		add(func(c *Scenario) { c.Classes = 2 })
	}
	return out
}

// setRounds shrinks the horizon and clamps every round-indexed field
// back inside the grammar.
func setRounds(c *Scenario, rounds int) {
	if rounds < 1 {
		rounds = 1
	}
	c.Rounds = rounds
	if c.SaveLoadAt >= rounds {
		c.SaveLoadAt = rounds - 1
	}
	if c.Overlap > rounds {
		c.Overlap = rounds
	}
	for i := range c.Clients {
		cs := &c.Clients[i]
		if cs.Join >= rounds {
			cs.Join = rounds - 1
		}
		if cs.Leave != -1 {
			if cs.Leave > rounds {
				cs.Leave = rounds
			}
			if cs.Leave <= cs.Join {
				cs.Leave = -1
			}
		}
		cs.CrashAt = filterBelow(cs.CrashAt, rounds)
		cs.CorruptAt = filterBelow(cs.CorruptAt, rounds)
	}
}

// dropClient removes roster entry i and its forget reference.
func dropClient(c *Scenario, i int) {
	id := c.Clients[i].ID
	c.Clients = slices.Delete(c.Clients, i, i+1)
	if j := slices.Index(c.Forget, id); j >= 0 {
		c.Forget = slices.Delete(c.Forget, j, j+1)
	}
}

func filterBelow(s []int, limit int) []int {
	var out []int
	for _, v := range s {
		if v < limit {
			out = append(out, v)
		}
	}
	return out
}

// cloneScenario deep-copies sc so candidate mutations never alias the
// original's slices.
func cloneScenario(sc Scenario) Scenario {
	c := sc
	c.Clients = slices.Clone(sc.Clients)
	for i := range c.Clients {
		c.Clients[i].CrashAt = slices.Clone(c.Clients[i].CrashAt)
		c.Clients[i].CorruptAt = slices.Clone(c.Clients[i].CorruptAt)
	}
	c.Forget = slices.Clone(sc.Forget)
	return c
}

// replayCommand renders the one-line reproducer printed under a
// failure: the generator seed that produced the original schedule plus
// the shrunk schedule JSON. TestReplay honours -schedule over -seed, so
// the pasted command re-executes the minimal reproducer directly.
func replayCommand(seed uint64, minimal Scenario) string {
	return fmt.Sprintf("go test ./internal/simtest -run 'TestReplay$' -seed %d -schedule '%s'",
		seed, minimal.Encode())
}
