package pipeline

import (
	"math/rand"
	"testing"
)

// held returns the events the wheel has not popped yet, in its slots and in
// its overflow heap.
func (w *eventWheel) held() []completionEvent {
	var out []completionEvent
	for i, s := range w.slots {
		if uint64(i) == w.now&wheelMask {
			s = s[w.head:]
		}
		out = append(out, s...)
	}
	return append(out, w.overflow.a...)
}

// restarted reports whether the wheel is back at cycle 0 with every slot
// and the overflow heap empty.
func (w *eventWheel) restarted() bool {
	for _, s := range w.slots {
		if len(s) != 0 {
			return false
		}
	}
	return w.now == 0 && w.head == 0 && w.overflow.len() == 0
}

// TestEventWheelMatchesHeap feeds an eventWheel and a reference eventHeap
// the same pushes and requires identical pops. The pushes reach up to 300
// cycles ahead (about one in ten goes through the overflow heap), come
// in random seq order within a cycle, include stale events whose uop has
// since been recycled to a new seq, and a reset restarts both queues at
// cycle 0 partway through. The drain sometimes skips cycles, which the
// wheel must cover in one popDue call.
func TestEventWheelMatchesHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var w eventWheel
		var ref eventHeap
		w.reset()
		used := map[uint64]bool{}
		var cycle uint64
		var pops, overflowed, outOfOrder int
		resetAt := 300 + rng.Intn(400)
		for step := 0; step < 1000; step++ {
			if step == resetAt {
				w.reset()
				ref = eventHeap{}
				cycle = 0
				if !w.restarted() {
					t.Fatalf("seed %d: reset left the wheel holding events", seed)
				}
			}
			cycle += 1 + uint64(rng.Intn(3)/2) // now and then skip a cycle
			for {
				got, ok := w.popDue(cycle)
				want, wantOK := completionEvent{}, ref.len() > 0 && ref.peek().due <= cycle
				if wantOK {
					want = ref.pop()
				}
				if ok != wantOK || got != want {
					t.Fatalf("seed %d, cycle %d: wheel popped (%+v, %v), heap (%+v, %v)",
						seed, cycle, got, ok, want, wantOK)
				}
				if !ok {
					break
				}
				pops++
			}

			var lastSeq uint64
			for range rng.Intn(8) {
				ahead := uint64(1 + rng.Intn(20))
				if rng.Intn(8) == 0 {
					ahead = uint64(1 + rng.Intn(300))
				}
				if ahead >= wheelSlots {
					overflowed++
				}
				seq := uint64(rng.Intn(1 << 20))
				for used[seq] {
					seq = uint64(rng.Intn(1 << 20))
				}
				used[seq] = true
				if seq < lastSeq {
					outOfOrder++
				}
				lastSeq = seq
				u := &uop{seq: seq}
				w.push(cycle+ahead, u)
				ref.push(completionEvent{due: cycle + ahead, seq: seq, u: u})
				if rng.Intn(10) == 0 {
					u.seq++ // recycled: the queued event is now stale
				}
			}
			if n := len(w.held()); n != ref.len() {
				t.Fatalf("seed %d, cycle %d: wheel holds %d events, heap %d", seed, cycle, n, ref.len())
			}
		}
		if pops == 0 || overflowed == 0 || outOfOrder == 0 {
			t.Fatalf("seed %d: %d pops, %d overflow pushes, %d out-of-order pushes; want all three", seed, pops, overflowed, outOfOrder)
		}
	}
}
