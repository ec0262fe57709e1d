package charm

// fifo is a head-indexed queue: taking the head is O(1) and never shifts
// the remaining entries. Consumed slots are zeroed at once, so a taken
// payload is not kept reachable by the backing array. The array is
// compacted in place when an append would otherwise have to grow it while
// at least half of it is consumed, which keeps a steady-state queue
// allocation-free at amortized O(1) per operation.
type fifo[T any] struct {
	buf  []T
	head int
}

// len returns the number of live entries.
func (q *fifo[T]) len() int { return len(q.buf) - q.head }

// live returns the live entries, head first. The slice aliases the queue
// and is valid until the next push or take.
func (q *fifo[T]) live() []T { return q.buf[q.head:] }

func (q *fifo[T]) push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && 2*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

// take removes and returns the i-th live entry; the others keep their
// order. Entries ahead of it shift back by one slot, so taking the head
// (i = 0) moves nothing.
func (q *fifo[T]) take(i int) T {
	at := q.head + i
	v := q.buf[at]
	if i > 0 {
		copy(q.buf[q.head+1:at+1], q.buf[q.head:at])
	}
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}
