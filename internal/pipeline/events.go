package pipeline

// completionEvent schedules one uop's completed-transition. seq snapshots
// the uop's identity at scheduling time: pooled uops can be recycled while a
// stale event for their squashed previous life is still queued, and the
// (monotonic, never reused) per-thread seq exposes that on pop.
type completionEvent struct {
	due uint64
	seq uint64
	u   *uop
}

// wheelSlots is the timing wheel's horizon in cycles. Nearly every event
// is due within a few dozen cycles (pipeline latencies, L1–LLC hits); only
// DRAM misses and long divide chains land beyond it. A wider wheel measured
// slower: its slots miss in the host's cache more than the overflow heap
// costs.
const (
	wheelSlots = 64
	wheelMask  = wheelSlots - 1
	// slotRoom is each slot's share of the wheel's first buffer, about
	// as many events as come due in one cycle.
	slotRoom = 8
)

// eventWheel is a timing wheel of per-cycle slots (Varghese & Lauck, SOSP
// 1987) that pops events in (due, seq) order, the same order as a binary
// heap keyed (due, seq). Slot due&wheelMask holds the events due at that
// cycle, kept in seq order: pushes insert from the slot's tail, which is
// exact without being a plain append, because an older uop can come due in
// the same cycle as a younger one that was scheduled earlier (a load issued
// at cycle 5 with latency 6 and an older ALU op issued at cycle 10 with
// latency 1 both complete at cycle 11). Events due wheelSlots or more
// cycles past now wait in the overflow heap and move into their slot when
// it comes within the horizon.
//
// Every push must be due at or after now, the first cycle popDue has not
// drained yet; the stages only ever schedule into the future.
type eventWheel struct {
	slots [wheelSlots][]completionEvent
	// now is the first cycle not yet drained; head indexes the next
	// event to pop in now's slot.
	now      uint64
	head     int
	overflow eventHeap
}

func (w *eventWheel) push(due uint64, u *uop) {
	ev := completionEvent{due: due, seq: u.seq, u: u}
	if due-w.now >= wheelSlots {
		w.overflow.push(ev)
		return
	}
	w.insert(ev)
}

// insert places ev in its slot, behind every older event due the same
// cycle.
func (w *eventWheel) insert(ev completionEvent) {
	s := append(w.slots[ev.due&wheelMask], ev)
	i := len(s) - 1
	for i > 0 && s[i-1].seq > ev.seq {
		s[i] = s[i-1]
		i--
	}
	s[i] = ev
	w.slots[ev.due&wheelMask] = s
}

// popDue returns the next event due at or before cycle, in (due, seq)
// order, or false once none is left; it then has drained every slot up to
// and including cycle.
func (w *eventWheel) popDue(cycle uint64) (completionEvent, bool) {
	for w.now <= cycle {
		s := w.slots[w.now&wheelMask]
		if w.head < len(s) {
			ev := s[w.head]
			w.head++
			return ev, true
		}
		w.advance()
	}
	return completionEvent{}, false
}

// advance retires now's drained slot and moves the overflow events that
// the new horizon reaches into their slots.
func (w *eventWheel) advance() {
	s := w.slots[w.now&wheelMask]
	clear(s) // drop the uop pointers
	w.slots[w.now&wheelMask] = s[:0]
	w.head = 0
	w.now++
	for w.overflow.len() > 0 && w.overflow.peek().due-w.now < wheelSlots {
		w.insert(w.overflow.pop())
	}
}

// reset empties the wheel in place and restarts it at cycle 0, keeping
// every slot's buffer. A new wheel's slots share one buffer, so the slots
// a run touches stay close together; a slot that outgrows its share moves
// to a buffer of its own.
func (w *eventWheel) reset() {
	if w.slots[0] == nil {
		buf := make([]completionEvent, wheelSlots*slotRoom)
		for i := range w.slots {
			w.slots[i] = buf[i*slotRoom : i*slotRoom : (i+1)*slotRoom]
		}
	}
	for i, s := range w.slots {
		clear(s)
		w.slots[i] = s[:0]
	}
	w.overflow.a = withRoom(w.overflow.a, 0)
	w.now, w.head = 0, 0
}

// eventHeap is a min-heap ordered by (due, seq): the wheel's overflow, and
// the reference order the wheel must reproduce.
type eventHeap struct {
	a []completionEvent
}

func (h *eventHeap) len() int               { return len(h.a) }
func (h *eventHeap) peek() *completionEvent { return &h.a[0] }

func (h *eventHeap) less(i, j int) bool {
	if h.a[i].due != h.a[j].due {
		return h.a[i].due < h.a[j].due
	}
	return h.a[i].seq < h.a[j].seq
}

func (h *eventHeap) push(ev completionEvent) {
	h.a = append(h.a, ev)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.a[i], h.a[p] = h.a[p], h.a[i]
		i = p
	}
}

func (h *eventHeap) pop() completionEvent {
	top := h.a[0]
	n := len(h.a) - 1
	h.a[0] = h.a[n]
	h.a[n] = completionEvent{} // drop the uop pointer
	h.a = h.a[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && h.less(l, s) {
			s = l
		}
		if r < n && h.less(r, s) {
			s = r
		}
		if s == i {
			break
		}
		h.a[i], h.a[s] = h.a[s], h.a[i]
		i = s
	}
	return top
}
