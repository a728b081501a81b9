package memctrl

// FullWaitingSet returns every eligible request waiting on channel ch as
// a candidate, derived from the channel's bank state without the timing
// memos: the set OnSchedule's delayed set is a filtered part of. Called
// from CommandTrace it sees the state the arbitration saw.
func (c *Controller) FullWaitingSet(ch int, now int64) []Candidate {
	_, useWrites, _ := c.eligibility(ch)
	channel := c.channels[ch]
	var out []Candidate
	for b := 0; b < c.banksPer; b++ {
		q := &c.queues[ch*c.banksPer+b]
		lists := [][]*Request{q.reads}
		if useWrites {
			lists = append(lists, q.writes)
		}
		for _, list := range lists {
			for _, r := range list {
				cmd := channel.NextCommand(r.Loc.Bank, r.Loc.Row, r.IsWrite)
				out = append(out, Candidate{
					Req: r, Cmd: cmd, Outcome: outcomeFor(cmd.Kind), Channel: ch,
					First: !r.Started, Ready: now >= channel.CommandReadyAt(cmd),
				})
			}
		}
	}
	return out
}

// ForgetHorizons drops every channel's cached no-issue horizon, so the
// next Tick rescans every channel.
func (c *Controller) ForgetHorizons() {
	for i := range c.chHorizon {
		c.chHorizon[i] = 0
	}
}
