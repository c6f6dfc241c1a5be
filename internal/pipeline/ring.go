package pipeline

// ring is a power-of-two-capacity circular queue with masked indexing, the
// backing structure for every age-ordered pipeline queue (IDQ, ROB, LB, SB,
// the RS and writeback scan lists, the uop limbo list and the replay
// window). Pushes reuse the fixed buffer instead of re-slicing, so the
// steady-state cycle loop performs no queue allocations; a push beyond the
// current capacity doubles the buffer (amortized — only until the deepest
// occupancy of the run has been seen once).
//
// Logical index 0 is the front (oldest entry); physical slot i lives at
// buf[(head+i)&mask]. All removal paths zero the vacated slot so the ring
// never retains pointers to entries that left the pipeline.
type ring[T any] struct {
	buf  []T
	mask uint64
	head uint64
	n    int
}

// newRing returns a ring with capacity for at least `capacity` entries.
func newRing[T any](capacity int) ring[T] {
	c := 1
	for c < capacity {
		c <<= 1
	}
	return ring[T]{buf: make([]T, c), mask: uint64(c - 1)}
}

// reset empties the ring, zeroing the slots it held, and makes room for at
// least capacity entries, keeping the buffer when it is large enough.
func (r *ring[T]) reset(capacity int) {
	if r.buf == nil || len(r.buf) < capacity {
		*r = newRing[T](capacity)
		return
	}
	r.truncate(0)
	r.head = 0
}

func (r *ring[T]) len() int { return r.n }

// at returns the entry at logical index i (0 = oldest).
func (r *ring[T]) at(i int) T { return r.buf[(r.head+uint64(i))&r.mask] }

// ptr returns the address of the entry at logical index i, valid until the
// ring is next pushed to or popped from.
func (r *ring[T]) ptr(i int) *T { return &r.buf[(r.head+uint64(i))&r.mask] }

// set overwrites the entry at logical index i.
func (r *ring[T]) set(i int, v T) { r.buf[(r.head+uint64(i))&r.mask] = v }

func (r *ring[T]) front() T { return r.buf[r.head&r.mask] }

func (r *ring[T]) back() T { return r.buf[(r.head+uint64(r.n-1))&r.mask] }

func (r *ring[T]) pushBack(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+uint64(r.n))&r.mask] = v
	r.n++
}

func (r *ring[T]) popFront() T {
	i := r.head & r.mask
	v := r.buf[i]
	var zero T
	r.buf[i] = zero
	r.head++
	r.n--
	return v
}

func (r *ring[T]) popBack() T {
	i := (r.head + uint64(r.n-1)) & r.mask
	v := r.buf[i]
	var zero T
	r.buf[i] = zero
	r.n--
	return v
}

// truncate keeps the first n entries and zeroes the dropped slots. The scan
// loops in issue/complete compact the ring in place with set() and then
// truncate to the number of kept entries.
func (r *ring[T]) truncate(n int) {
	var zero T
	for i := n; i < r.n; i++ {
		r.buf[(r.head+uint64(i))&r.mask] = zero
	}
	r.n = n
}

// removeAt deletes the entry at logical index i, preserving order.
func (r *ring[T]) removeAt(i int) {
	for j := i; j < r.n-1; j++ {
		r.set(j, r.at(j+1))
	}
	r.truncate(r.n - 1)
}

func (r *ring[T]) grow() {
	nbuf := make([]T, len(r.buf)*2)
	for i := 0; i < r.n; i++ {
		nbuf[i] = r.at(i)
	}
	r.buf = nbuf
	r.mask = uint64(len(nbuf) - 1)
	r.head = 0
}
