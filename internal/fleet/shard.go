package fleet

// Batch planning: a /reach/batch request is deduplicated and
// partitioned by source rank before it is fanned out, then the
// answers are expanded back into caller order. The plan is pure data
// — no I/O — so the split/merge invariants (caller order preserved,
// duplicates asked once) are unit-testable without a fleet.

// shardOf is the router's one shard rule: shard(s) = s mod k over k
// shards, and a negative source, which no replica serves, goes to shard
// 0, whose replica words the refusal.
func shardOf(s int64, k int) int {
	return int(max(s, 0) % int64(k))
}

// batchPlan is the split of one incoming batch.
type batchPlan struct {
	// uniq holds the distinct pairs in first-appearance order.
	uniq [][2]int64
	// posToUniq maps each caller position to its pair's slot in uniq.
	posToUniq []int
	// groups[g] lists uniq indices owned by shard g (shardOf over
	// len(groups)); with one group everything lands in groups[0]. Within a group, uniq order (and therefore caller
	// first-appearance order) is preserved.
	groups [][]int
}

// splitBatch plans a batch over k shards. Duplicate pairs collapse to
// one upstream ask; every caller position keeps its answer because
// the merge step expands through posToUniq.
func splitBatch(pairs [][2]int64, k int) batchPlan {
	plan := batchPlan{
		uniq:      make([][2]int64, 0, len(pairs)),
		posToUniq: make([]int, len(pairs)),
		groups:    make([][]int, k),
	}
	slot := make(map[[2]int64]int, len(pairs))
	for i, p := range pairs {
		u, ok := slot[p]
		if !ok {
			u = len(plan.uniq)
			slot[p] = u
			plan.uniq = append(plan.uniq, p)
			g := shardOf(p[0], k)
			plan.groups[g] = append(plan.groups[g], u)
		}
		plan.posToUniq[i] = u
	}
	return plan
}
