package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// opKind is one kind of transaction a client issues.
type opKind uint8

const (
	opBuy  opKind = iota // begin / Buy(in-limit amount) / commit
	opOver               // begin / Buy(over-limit amount) / commit: DenyCredit must abort it
	opArm                // begin / Deactivate / Activate DenyCredit / commit
	opRead               // snapshot begin / get / commit
	opKick               // begin / post Kick / commit: Chain posts Credit cross-shard
)

// mix gives each non-Buy kind's share in per mille; Buys take the rest.
type mix struct{ over, arm, read, kick int }

func (m mix) pick(r *rand.Rand) opKind {
	p := r.Intn(1000)
	switch {
	case p < m.over:
		return opOver
	case p < m.over+m.arm:
		return opArm
	case p < m.over+m.arm+m.read:
		return opRead
	case p < m.over+m.arm+m.read+m.kick:
		return opKick
	}
	return opBuy
}

const (
	// cardLimit is every card's credit limit. In-limit Buys are 1–100,
	// so no run approaches it; an over-limit Buy alone exceeds it. Every
	// outcome is therefore fixed by the input, whatever the order.
	cardLimit  = 1e9
	overAmount = 2 * cardLimit
)

func buyAmount(r *rand.Rand) float64 { return float64(1 + r.Intn(100)) }

// outcome is how a Buy ended.
type outcome uint8

const (
	committed outcome = iota + 1
	aborted           // doomed by a trigger (tabort), not by a lock
	failed            // deadlock victim, transport or engine error
)

// wireOutcome classifies a pipelined Buy transaction from the first
// error among its calls and how many calls succeeded before it: a Buy
// whose commit alone failed, not as a deadlock victim, was aborted by a
// trigger.
func wireOutcome(err error, ok, calls int) outcome {
	switch {
	case err == nil:
		return committed
	case ok == calls-1 && !strings.Contains(err.Error(), "deadlock"):
		return aborted
	}
	return failed
}

// model is the generator's view of the cards: the balance their
// committed Buys add up to, the Buys sent, the highest balance a
// completed snapshot read saw, and the trigger each card should have
// armed. Clients own disjoint cards, so each card has one writer.
// Outcomes and reads are checked as they complete; final state is
// checked by check.
type model struct {
	limit   float64
	trig    []uint64 // per card: the armed DenyCredit's trigger-state OID, 0 if none
	bal     []float64
	sent    []float64
	maxRead []float64
}

func newModel(cards int) *model {
	return &model{limit: cardLimit, trig: make([]uint64, cards), bal: make([]float64, cards),
		sent: make([]float64, cards), maxRead: make([]float64, cards)}
}

// noteBuy checks how a Buy ended against its amount: every over-limit
// Buy must abort, and no in-limit Buy may be aborted by a trigger (a
// deadlock victim is a failure, not a violation).
func (m *model) noteBuy(t *tally, card int, amt float64, out outcome) {
	over := amt > m.limit
	switch {
	case over && out == committed:
		t.problemf("card %d: over-limit Buy of %g committed", card, amt)
	case !over && out == aborted:
		t.problemf("card %d: in-limit Buy of %g aborted", card, amt)
	}
	if out == committed {
		m.bal[card] += amt
	}
	if out == failed {
		t.failed++
	}
}

// noteRead checks one snapshot read of a card's balance: it may not be
// below floor, the highest balance a read completed before this one was
// sent saw, nor above the sum of every Buy sent on the card so far.
func (m *model) noteRead(t *tally, card int, val, floor float64) {
	if val < floor || val > m.sent[card] {
		t.problemf("card %d: snapshot read %g outside [%g, %g]", card, val, floor, m.sent[card])
	}
	if val > m.maxRead[card] {
		m.maxRead[card] = val
	}
}

// cardState is one card as the engine reports it at the end of a run.
type cardState struct {
	bal   float64
	trigs []uint64
}

// check compares each card's final state (from get) against the
// balance its committed Buys add up to and the trigger the model armed.
func (m *model) check(get func(card int) (cardState, error)) []string {
	var ps []string
	for i := range m.trig {
		st, err := get(i)
		if err != nil {
			ps = append(ps, fmt.Sprintf("card %d: %v", i, err))
			continue
		}
		if st.bal != m.bal[i] {
			ps = append(ps, fmt.Sprintf("card %d: balance %g, model %g", i, st.bal, m.bal[i]))
		}
		want := 0
		if m.trig[i] != 0 {
			want = 1
		}
		if len(st.trigs) != want || (want == 1 && st.trigs[0] != m.trig[i]) {
			ps = append(ps, fmt.Sprintf("card %d: active triggers %v, model %d", i, st.trigs, m.trig[i]))
		}
		if len(ps) > 20 {
			break
		}
	}
	return ps
}
