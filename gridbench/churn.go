package main

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sort"

	"gridrank"
)

// monitor is one live subscription of the churn workload and the
// events drained from it.
type monitor struct {
	op     op
	sub    *gridrank.Subscription
	events []gridrank.SubEvent
}

// drainer empties every monitor's event channel from one goroutine, so
// no subscription lags while the run mutates the index.
type drainer struct {
	mons []*monitor
	stop chan struct{}
	done chan struct{}
}

// subscribe registers w's monitors on ix and starts draining them.
func subscribe(ix *gridrank.Index, w *workload) (*drainer, error) {
	d := &drainer{stop: make(chan struct{}), done: make(chan struct{})}
	for _, o := range w.Monitors {
		kind := gridrank.SubReverseTopK
		if o.Kind == opRKR {
			kind = gridrank.SubReverseKRanks
		}
		s, err := ix.Subscribe(w.Vecs[o.Vec], int(o.K), kind, 0)
		if err != nil {
			for _, m := range d.mons {
				m.sub.Close()
			}
			return nil, fmt.Errorf("subscribing: %w", err)
		}
		d.mons = append(d.mons, &monitor{op: o, sub: s})
	}
	go d.run()
	return d, nil
}

func (d *drainer) run() {
	defer close(d.done)
	cases := []reflect.SelectCase{{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(d.stop)}}
	owner := []*monitor{nil}
	for _, m := range d.mons {
		cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(m.sub.Events())})
		owner = append(owner, m)
	}
	for len(cases) > 1 {
		i, v, ok := reflect.Select(cases)
		if i == 0 {
			break
		}
		if !ok { // the subscription ended (lagged); Lagged() reports it
			cases = slices.Delete(cases, i, i+1)
			owner = slices.Delete(owner, i, i+1)
			continue
		}
		owner[i].events = append(owner[i].events, v.Interface().(gridrank.SubEvent))
	}
	// Every mutation has returned, so every event is buffered: take the
	// rest without blocking.
	for _, m := range d.mons {
		for more := true; more; {
			select {
			case ev, ok := <-m.sub.Events():
				if ok {
					m.events = append(m.events, ev)
				} else {
					more = false
				}
			default:
				more = false
			}
		}
	}
}

// close stops draining, waits for the drainer and ends the
// subscriptions.
func (d *drainer) close() {
	close(d.stop)
	<-d.done
	for _, m := range d.mons {
		m.sub.Close()
	}
}

// checkChurn verifies a churn pass once its ops have finished: the
// reads must pass checkChurnReads; every warmed pool query and
// monitored query, asked again through the cache and around it, must
// equal the brute-force oracle over the final Products() and
// Preferences(); and every monitor's Initial() must equal the oracle
// over the starting catalog, then replay through its event stream to
// the oracle's final membership without lagging.
func checkChurn(t *target, w *workload, d *drainer, samples []sample, ep0 uint64, start *oracle) error {
	if err := checkChurnReads(t.ix, w, samples, ep0); err != nil {
		return err
	}
	final := newOracle(t.ix.Products(), t.ix.Preferences())
	for _, o := range append(slices.Clone(w.Warm), w.Monitors...) {
		want := final.answer(o.Kind, w.Vecs[o.Vec], int(o.K))
		for _, l := range []layer{layerIndex, layerAlgo} {
			var s sample
			err := t.exec(context.Background(), l, w, o, prepared{}, &s)()
			if err != nil {
				return err
			}
			if s.hash != want {
				return fmt.Errorf("final %s k=%d answer for query %d through %s differs from the oracle",
					classNames[o.Kind.class()], o.K, o.Vec, layerNames[l])
			}
		}
	}
	// Preference deletes renumber the ids above the deleted one; the
	// replay needs to know which epochs did that.
	prefDel := map[uint64]int{}
	for i := range samples {
		if s := &samples[i]; s.done && !s.failed && w.Ops[i].Kind == opDelPref {
			prefDel[s.epoch] = int(w.Ops[i].ID)
		}
	}
	for _, m := range d.mons {
		if m.sub.Lagged() {
			return fmt.Errorf("subscription on query %d lagged", m.op.Vec)
		}
		q, k := w.Vecs[m.op.Vec], int(m.op.K)
		members := map[int]bool{}
		for _, mb := range m.sub.Initial() {
			members[mb.Pref] = true
		}
		if !sameSet(members, membership(start, m.op.Kind, q, k)) {
			return fmt.Errorf("subscription on query %d: initial membership differs from the oracle", m.op.Vec)
		}
		if err := replay(members, m.events, prefDel); err != nil {
			return fmt.Errorf("subscription on query %d: %w", m.op.Vec, err)
		}
		if !sameSet(members, membership(final, m.op.Kind, q, k)) {
			return fmt.Errorf("subscription on query %d: replayed membership differs from the oracle", m.op.Vec)
		}
	}
	return nil
}

// checkChurnReads checks every churn read against the catalog it could
// have seen. The load generator serializes mutations and records the
// epoch each installed, so a read that ran between two mutations saw
// exactly the catalog after the earlier one, and a read that overlapped
// one mutation saw the catalog before or after it, whether the scan or
// the cache answered. The oracle follows the catalog by applying the
// mutations in epoch order; the catalog must end equal to the index's
// final Products() and Preferences(). Reads that overlapped two or more
// mutations are not checked.
func checkChurnReads(ix *gridrank.Index, w *workload, samples []sample, ep0 uint64) error {
	var muts []*sample
	var mutOps []op
	for i := range samples {
		if s := &samples[i]; s.done && !s.failed && w.Ops[i].Kind.class() == classMut {
			muts, mutOps = append(muts, s), append(mutOps, w.Ops[i])
		}
	}
	order := make([]int, len(muts))
	for j := range order {
		order[j] = j
	}
	sort.Slice(order, func(a, b int) bool { return muts[order[a]].epoch < muts[order[b]].epoch })
	sorted := make([]*sample, len(muts))
	sortedOps := make([]op, len(muts))
	for j, k := range order {
		sorted[j], sortedOps[j] = muts[k], mutOps[k]
		if want := ep0 + uint64(j) + 1; muts[k].epoch != want {
			return fmt.Errorf("a mutation installed epoch %d, want %d", muts[k].epoch, want)
		}
	}
	// byState[j] lists the reads that may have seen the catalog after
	// j mutations.
	byState := make([][]int, len(sorted)+1)
	checked := map[int]bool{}
	for i := range samples {
		s := &samples[i]
		if !s.done || s.failed || w.Ops[i].Kind.class() == classMut {
			continue
		}
		a := sort.Search(len(sorted), func(j int) bool { return sorted[j].end >= s.sent })
		b := sort.Search(len(sorted), func(j int) bool { return sorted[j].sent >= s.end })
		if b-a <= 1 {
			checked[i] = false
			byState[a] = append(byState[a], i)
			if b != a {
				byState[b] = append(byState[b], i)
			}
		}
	}
	products, prefs := slices.Clone(w.Products), slices.Clone(w.Prefs)
	o := newOracle(products, prefs)
	for j := 0; j <= len(sorted); j++ {
		if j > 0 {
			switch m := sortedOps[j-1]; m.Kind {
			case opInsProduct:
				products = append(products, w.Vecs[m.Vec])
				o.insertProduct(w.Vecs[m.Vec])
			case opDelProduct:
				o.deleteProduct(products[m.ID])
				products = slices.Delete(products, int(m.ID), int(m.ID)+1)
			case opInsPref:
				prefs = append(prefs, w.Vecs[m.Vec])
				o.insertPref(w.Vecs[m.Vec], products)
			case opDelPref:
				prefs = slices.Delete(prefs, int(m.ID), int(m.ID)+1)
				o.deletePref(int(m.ID))
			}
		}
		for _, i := range byState[j] {
			op := w.Ops[i]
			if samples[i].hash == o.answer(op.Kind, w.Vecs[op.Vec], int(op.K)) {
				checked[i] = true
			}
		}
	}
	for i, ok := range checked {
		if !ok {
			op := w.Ops[i]
			return fmt.Errorf("op %d (%s k=%d, query %d): answer matches no catalog it could have seen",
				i, classNames[op.Kind.class()], op.K, op.Vec)
		}
	}
	eq := func(a, b [][]float64) bool { return slices.EqualFunc(a, b, slices.Equal[[]float64]) }
	if !eq(products, ix.Products()) || !eq(prefs, ix.Preferences()) {
		return fmt.Errorf("the index's final catalog differs from the starting one with the mutations applied")
	}
	return nil
}

// replay applies an event stream to a membership set. Events arrive
// grouped by epoch; in an epoch that deleted preference x, the Leave
// for x carries its pre-delete id and every other id is post-delete,
// so x leaves first, the ids above it shift down, then the rest apply.
func replay(members map[int]bool, events []gridrank.SubEvent, prefDel map[uint64]int) error {
	epochs := make([]uint64, 0, len(prefDel))
	for e := range prefDel {
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	apply := func(ev gridrank.SubEvent) error {
		if ev.Type == gridrank.SubEnter {
			if members[ev.Pref] {
				return fmt.Errorf("epoch %d: enter for member %d", ev.Seq, ev.Pref)
			}
			members[ev.Pref] = true
			return nil
		}
		if !members[ev.Pref] {
			return fmt.Errorf("epoch %d: leave for non-member %d", ev.Seq, ev.Pref)
		}
		delete(members, ev.Pref)
		return nil
	}
	renumber := func(x int) {
		var moved []int
		for p := range members {
			if p > x {
				moved = append(moved, p)
			}
		}
		sort.Ints(moved)
		for _, p := range moved {
			delete(members, p)
			members[p-1] = true
		}
	}
	i := 0
	for _, e := range epochs {
		for ; i < len(events) && events[i].Seq < e; i++ {
			if err := apply(events[i]); err != nil {
				return err
			}
		}
		x := prefDel[e]
		j := i
		for j < len(events) && events[j].Seq == e {
			j++
		}
		// x's own Leave first, in its pre-delete numbering.
		rest := make([]gridrank.SubEvent, 0, j-i)
		left := false
		for _, ev := range events[i:j] {
			if !left && ev.Type == gridrank.SubLeave && ev.Pref == x {
				if err := apply(ev); err != nil {
					return err
				}
				left = true
				continue
			}
			rest = append(rest, ev)
		}
		renumber(x)
		for _, ev := range rest {
			if err := apply(ev); err != nil {
				return err
			}
		}
		i = j
	}
	for ; i < len(events); i++ {
		if err := apply(events[i]); err != nil {
			return err
		}
	}
	return nil
}

// membership is the oracle's answer set for a monitor, as preference ids.
func membership(o *oracle, kind opKind, q []float64, k int) map[int]bool {
	set := map[int]bool{}
	if kind == opRKR {
		for _, m := range o.reverseKRanks(q, k) {
			set[m.Pref] = true
		}
	} else {
		for _, id := range o.reverseTopK(q, k) {
			set[id] = true
		}
	}
	return set
}

func sameSet(a, b map[int]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
