package unlearn

import (
	"context"
	"errors"
	"fmt"

	"fuiov/internal/history"
	"fuiov/internal/sign"
)

// CommitPass is an in-flight unlearn-and-commit operation: the
// recovery UnlearnContext runs, plus a rewritten history store
// reflecting the post-unlearning world:
//
//   - the forgotten clients' directions and membership are gone;
//   - model snapshots for rounds F+1..T−1 are replaced by the
//     recovered trajectory w̄ (round F keeps w_F, which is both the old
//     and new state there);
//   - remaining clients' stored directions are carried over verbatim.
//
// Later unlearning requests can then run against the new store as if
// the forgotten vehicles had never participated. The carried-over
// directions were computed against the *original* trajectory, so a
// second recovery compounds the scheme's approximation — the same
// trade-off the paper accepts for its own recovered gradients.
//
// A pass can overlap a live store: recovery chases the store's growing
// tip with repeated Advance calls while training keeps appending
// rounds, and Commit performs the final short catch-up plus the store
// swap-out under the caller's exclusion (no RecordRound may run during
// Commit). Because each recovered round depends only on that round's
// immutable record and on state derived from earlier rounds — never on
// when the round became visible — the committed result is
// bit-identical to a stop-the-world BeginCommit + Commit over the
// final store, regardless of how the pass interleaved with training.
// The one assumption is that the forgotten clients' join rounds do not
// change while the pass runs (i.e. a forgotten client does not leave
// and rejoin mid-pass).
//
// The rewritten store is built incrementally as the pass advances —
// round t is rewritten just before the pass recovers it, when the
// pass's running model w̄ is exactly round t's post-unlearning snapshot
// — so Commit's critical section is proportional to the rounds
// appended since the last Advance, not to the full history.
type CommitPass struct {
	u       *Unlearner
	p       *pass
	ns      *history.Store
	written int       // rounds already rewritten into ns
	buf     []float64 // pre-F snapshot read buffer

	// Per-round carry-over scratch, cleared and refilled every rewritten
	// round (RecordRoundDirs copies the maps' entries, not the maps).
	participants []history.ClientID
	dirs         map[history.ClientID]*sign.Direction
	weights      map[history.ClientID]float64

	done bool
	err  error // sticky non-context failure
}

// BeginCommit starts an unlearn-and-commit pass without running any
// recovery yet. Drive it with Advance while training continues, then
// finish with Commit under exclusion; or call Commit directly for a
// stop-the-world pass. A pass that is abandoned mid-way needs no
// cleanup — the original store is never mutated.
func (u *Unlearner) BeginCommit(forgotten ...history.ClientID) (*CommitPass, error) {
	if u.store.Delta() >= 1 {
		// The rewritten store keeps the remaining clients' ±1/0 records
		// as they are; they equal a re-recording of the expanded
		// directions — what a commit is defined as — only when the
		// threshold sits below 1.
		return nil, fmt.Errorf("unlearn: cannot commit with direction threshold %v >= 1", u.store.Delta())
	}
	wF, f, err := u.Backtrack(forgotten...)
	if err != nil {
		return nil, err
	}
	ns, err := history.NewStore(u.store.Dim(), u.store.Delta())
	if err != nil {
		return nil, fmt.Errorf("unlearn: commit: %w", err)
	}
	return &CommitPass{
		u:       u,
		p:       u.newPass(wF, f, forgotten),
		ns:      ns,
		buf:     make([]float64, u.store.Dim()),
		dirs:    make(map[history.ClientID]*sign.Direction),
		weights: make(map[history.ClientID]float64),
	}, nil
}

// Recovered returns the number of rounds recovered so far.
func (cp *CommitPass) Recovered() int { return cp.p.next - cp.p.f }

// Lag returns how many recorded rounds the pass has not yet recovered.
// During an overlapped run this is the distance to the store's tip;
// the caller typically alternates Advance until the lag stops
// shrinking, then takes its exclusion and calls Commit.
func (cp *CommitPass) Lag() int { return cp.u.store.Rounds() - cp.p.next }

// Advance recovers and rewrites through every round currently visible
// in the store, without any exclusion — RecordRound may keep running
// concurrently. It returns the lag remaining after the sweep (rounds
// appended while it ran). A context error suspends the pass at a round
// boundary and is resumable; any other error is sticky and fails the
// pass.
func (cp *CommitPass) Advance(ctx context.Context) (int, error) {
	if err := cp.state(); err != nil {
		return 0, err
	}
	if err := cp.runAndRewrite(ctx, cp.u.store.Rounds()); err != nil {
		return 0, err
	}
	return cp.Lag(), nil
}

// Commit finishes the pass: the final catch-up over rounds appended
// since the last Advance, the remaining store rewrite, and the
// membership carry-over. The caller must guarantee no RecordRound or
// NoteLeave runs on the store for the duration (e.g. hold the engine
// lock); the critical section is proportional to the remaining lag.
// It returns the unlearning result and the rewritten store. The pass
// must not be used after a successful Commit.
func (cp *CommitPass) Commit(ctx context.Context) (*Result, *history.Store, error) {
	if err := cp.state(); err != nil {
		return nil, nil, err
	}
	if err := cp.runAndRewrite(ctx, cp.u.store.Rounds()); err != nil {
		return nil, nil, err
	}
	// Preserve leave records of remaining clients.
	for _, id := range cp.u.store.Clients() {
		if cp.p.excluded[id] {
			continue
		}
		m, err := cp.u.store.MembershipOf(id)
		if err != nil {
			return nil, nil, cp.fail(fmt.Errorf("unlearn: commit: %w", err))
		}
		if m.LeaveRound >= 0 {
			cp.ns.NoteLeave(id, m.LeaveRound)
		}
	}
	cp.done = true
	return cp.p.finish(), cp.ns, nil
}

// state reports whether the pass can still advance.
func (cp *CommitPass) state() error {
	if cp.err != nil {
		return cp.err
	}
	if cp.done {
		return errors.New("unlearn: commit pass already committed")
	}
	return nil
}

// fail marks a non-context error sticky so later calls refuse cheaply.
func (cp *CommitPass) fail(err error) error {
	if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		cp.err = err
	}
	return err
}

// runAndRewrite brings both the recovery and the rewritten store up to
// limit, one round at a time: rewrite round t, then recover it. Before
// the pass recovers round t ≥ F its running model w̄ is that round's
// post-unlearning snapshot (w_F at t = F, where old and new state
// coincide), so the round is recorded straight from w̄ — one copy, made
// by the store — and no recovered trajectory is ever buffered. Rounds
// before F keep their recorded snapshot. A context error between the
// two steps leaves written one ahead of the pass; the resumed loop
// skips the rewrite and recovers.
func (cp *CommitPass) runAndRewrite(ctx context.Context, limit int) error {
	p := cp.p
	for t := min(cp.written, p.next); t < limit; t++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if t == cp.written {
			model := p.wBar
			if t < p.f {
				if err := cp.u.store.ModelInto(t, cp.buf); err != nil {
					return cp.fail(fmt.Errorf("unlearn: commit: %w", err))
				}
				model = cp.buf
			}
			if err := cp.rewriteRound(t, model); err != nil {
				return cp.fail(fmt.Errorf("unlearn: commit: %w", err))
			}
			cp.written = t + 1
		}
		if t >= p.f {
			if err := p.runTo(ctx, t+1); err != nil {
				return cp.fail(err)
			}
		}
	}
	return nil
}

// rewriteRound appends round t of the post-unlearning world to the
// rewritten store: the given model, the remaining clients' packed
// directions and weights carried over, forgotten clients dropped. The
// direction records are immutable, so both stores share them — nothing
// dim-sized is expanded, copied or re-compressed per client, and the
// stored bytes equal a re-recording of the expanded directions (±1/0
// compress to themselves below threshold 1). Round records are
// immutable once published, so this reads the live store without
// synchronisation.
func (cp *CommitPass) rewriteRound(t int, model []float64) error {
	old := cp.u.store
	var err error
	if cp.participants, err = old.ParticipantsInto(t, cp.participants); err != nil {
		return err
	}
	clear(cp.dirs)
	clear(cp.weights)
	for _, id := range cp.participants {
		if cp.p.excluded[id] {
			continue
		}
		if cp.dirs[id], err = old.Direction(t, id); err != nil {
			return err
		}
		if cp.weights[id], err = old.Weight(t, id); err != nil {
			return err
		}
	}
	return cp.ns.RecordRoundDirs(t, model, cp.dirs, cp.weights)
}
