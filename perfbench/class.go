package main

import (
	"fmt"

	"ode/internal/core"
)

// Card is the benchmark's object: the paper's §4 credit card, plus the
// two fields the cross-shard workload needs. Next is the card a Chain
// firing posts Credit to; Credits counts the Chain or Tally firings
// applied to this card.
type Card struct {
	CredLim float64
	CurrBal float64
	Next    uint64
	Credits int
}

// cardClass defines Card with three triggers:
//
//   - DenyCredit (perpetual): after Buy & OverLimit ==> tabort — the
//     paper's §4 trigger, armed on cards in every workload.
//   - Chain (perpetual): Kick ==> Bump; post Credit to Next — a firing
//     whose action posts to an object another shard owns (fleet-xshard
//     only).
//   - Tally (perpetual): Credit ==> Bump — applies the cross-shard
//     effect.
//
// onBump, when set, sees every Bump a firing makes with the card's new
// count; matching the n-th Chain firing on a source with the n-th
// Tally on its Next is how the benchmark times cross-shard lag. A
// firing whose transaction later aborts reports a count that the next
// committed firing reports again.
func cardClass(onBump func(oid uint64, credits int)) *core.Class {
	return core.MustClass("Card",
		core.Factory(func() any { return new(Card) }),
		core.Method("Buy", func(ctx *core.Ctx, self any, args []any) (any, error) {
			amt, ok := args[0].(float64)
			if !ok {
				return nil, fmt.Errorf("Buy: amount %T, want float64", args[0])
			}
			self.(*Card).CurrBal += amt
			return nil, nil
		}),
		core.Method("Bump", func(ctx *core.Ctx, self any, args []any) (any, error) {
			c := self.(*Card)
			c.Credits++
			return c.Credits, nil
		}),
		core.Events("after Buy", "Kick", "Credit"),
		core.Mask("OverLimit", func(ctx *core.Ctx, self any, act *core.Activation) (bool, error) {
			c := self.(*Card)
			return c.CurrBal > c.CredLim, nil
		}),
		core.Trigger("DenyCredit", "after Buy & OverLimit",
			func(ctx *core.Ctx, self any, act *core.Activation) error {
				ctx.TAbort()
				return nil
			},
			core.Perpetual()),
		core.Trigger("Chain", "Kick",
			func(ctx *core.Ctx, self any, act *core.Activation) error {
				if err := bump(ctx, onBump); err != nil {
					return err
				}
				return ctx.PostUserEvent(core.RefFromOID(storageOID(self.(*Card).Next)), "Credit")
			},
			core.Perpetual()),
		core.Trigger("Tally", "Credit",
			func(ctx *core.Ctx, self any, act *core.Activation) error {
				return bump(ctx, onBump)
			},
			core.Perpetual()),
	)
}

func bump(ctx *core.Ctx, onBump func(uint64, int)) error {
	n, err := ctx.Invoke(ctx.Self(), "Bump")
	if err != nil {
		return err
	}
	if onBump != nil {
		onBump(uint64(ctx.Self().OID()), n.(int))
	}
	return nil
}
