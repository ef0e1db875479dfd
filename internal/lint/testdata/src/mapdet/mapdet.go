// Package mapdet exercises the mapdet analyzer: order-sensitive
// effects inside map iterations. Lines marked `// want "..."` must
// produce a diagnostic whose message contains the quoted substring;
// all other lines must stay clean.
package mapdet

import (
	"bytes"
	"fmt"
	"sort"
)

type msg struct {
	Dst int
	Val int32
}

type worker struct{}

func (w *worker) Send(m msg)         {}
func (w *worker) Broadcast(b []byte) {}

// appendEscapes accumulates into a slice that outlives the loop and is
// never sorted: element order is the map's random visit order.
func appendEscapes(m map[int]string) []string {
	var out []string
	for _, v := range m {
		out = append(out, v) // want "append to \"out\" inside iteration over map \"m\""
	}
	return out
}

// collectThenSort is the canonical safe pattern: collect, sort, use.
func collectThenSort(m map[int]string) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// perKeySlot appends through the loop key: each key's slot is
// independent of visit order.
func perKeySlot(m map[int][]int, groups map[int][]int) {
	for k, vs := range m {
		groups[k] = append(groups[k], vs...)
	}
}

// indexNotKey appends through an index unrelated to the loop key, so
// bucket contents depend on visit order.
func indexNotKey(m map[int]int, buckets [][]int) {
	i := 0
	for _, v := range m {
		buckets[i%2] = append(buckets[i%2], v) // want "append through \"indexed slice\" inside iteration over map \"m\""
	}
}

// sendInLoop emits Pregel-style messages in map order.
func sendInLoop(w *worker, dirty map[int]int32) {
	for v, val := range dirty {
		w.Send(msg{Dst: v, Val: val}) // want "w.Send inside iteration over map \"dirty\""
	}
}

// broadcastInLoop emits a broadcast per key in map order.
func broadcastInLoop(w *worker, blobs map[int][]byte) {
	for _, b := range blobs {
		w.Broadcast(b) // want "w.Broadcast inside iteration over map \"blobs\""
	}
}

// flood sends on the caller's behalf, as the vertex programs' helper
// of the same name does; relay reaches it one call further down.
func flood(w *worker, v int, val int32) { w.Send(msg{Dst: v, Val: val}) }
func relay(w *worker, v int)            { flood(w, v, 0) }

// floodInLoop hides the Send behind a same-package helper: the
// messages still leave in map order.
func floodInLoop(w *worker, elim map[int]int32) {
	for v, val := range elim {
		flood(w, v, val) // want "flood sends messages and is called inside iteration over map \"elim\""
	}
}

// relayInLoop is the same hazard through two calls.
func relayInLoop(w *worker, elim map[int]int32) {
	for v := range elim {
		relay(w, v) // want "relay sends messages and is called inside iteration over map \"elim\""
	}
}

// floodSorted ranges the sorted keys, not the map: nothing to flag.
func floodSorted(w *worker, elim map[int]int32) {
	for _, v := range sortedKeys(elim) {
		flood(w, v, elim[v])
	}
}

func sortedKeys(m map[int]int32) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// encodeInLoop streams bytes in map order.
func encodeInLoop(m map[string]int) string {
	var buf bytes.Buffer
	for k := range m {
		buf.WriteString(k) // want "buf.WriteString inside iteration over map \"m\""
	}
	return buf.String()
}

// printInLoop writes formatted output in map order.
func printInLoop(m map[string]int, buf *bytes.Buffer) {
	for k, v := range m {
		fmt.Fprintf(buf, "%s=%d\n", k, v) // want "fmt.Fprintf inside iteration over map \"m\""
	}
}

// loopLocal accumulates into a slice that dies with each iteration, so
// nothing order-sensitive escapes.
func loopLocal(m map[int][]int) int {
	n := 0
	for _, vs := range m {
		local := []int{}
		local = append(local, vs...)
		n += len(local)
	}
	return n
}

// escapingClosure stores a literal that runs only after the loop (and
// after any sort the caller performs); its body is not part of the
// iteration.
func escapingClosure(m map[int]string) func() []string {
	var out []string
	var fn func()
	for k := range m {
		k := k
		fn = func() { out = append(out, m[k]) }
	}
	return func() []string {
		if fn != nil {
			fn()
		}
		return out
	}
}

// invokedClosure runs its literal in place: the append is part of the
// loop body.
func invokedClosure(m map[int]string) []string {
	var out []string
	for _, v := range m {
		func(s string) {
			out = append(out, s) // want "append to \"out\" inside iteration over map \"m\""
		}(v)
	}
	return out
}

// suppressed documents a deliberately order-free emission.
func suppressed(w *worker, dirty map[int]int32) {
	for v, val := range dirty {
		//lint:ignore mapdet fixture merges by commutative OR, order-free
		w.Send(msg{Dst: v, Val: val})
	}
}
