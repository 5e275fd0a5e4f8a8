package amr

// CorruptGhostPlan bumps the byte count of the first cached level-l
// ghost message behind the plan cache's back, so tests outside the
// package can show that the plan oracle catches a stale plan.
func CorruptGhostPlan(h *Hierarchy, l int) {
	h.planMu.Lock()
	h.plans[l].ghost[0].Bytes++
	h.planMu.Unlock()
}
