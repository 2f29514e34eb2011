package sim

// fifoBlockLen is the number of entries per FIFO block.
const fifoBlockLen = 256

type fifoBlock[T any] struct {
	items [fifoBlockLen]T
	next  *fifoBlock[T]
}

// FIFO is a first-in, first-out queue stored as a linked list of
// fixed-size blocks. A drained block goes to a spare list and is reused
// before any new block is allocated, so a queue that repeatedly fills
// and drains allocates only up to its peak length, once. Unlike an
// append-grown slice it never copies its contents and never holds a
// doubled backing array, which keeps the footprint of long queues
// proportional to their length. The zero value is an empty queue.
type FIFO[T any] struct {
	head, tail *fifoBlock[T]
	hi, ti     int // next read index in head, next write index in tail
	n          int
	spare      *fifoBlock[T]
}

// Len returns the number of queued entries.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends v to the back of the queue.
func (q *FIFO[T]) Push(v T) {
	if q.tail == nil || q.ti == fifoBlockLen {
		b := q.spare
		if b != nil {
			q.spare = b.next
			b.next = nil
		} else {
			b = new(fifoBlock[T])
		}
		if q.tail == nil {
			q.head, q.hi = b, 0
		} else {
			q.tail.next = b
		}
		q.tail, q.ti = b, 0
	}
	q.tail.items[q.ti] = v
	q.ti++
	q.n++
}

// Pop removes and returns the entry at the front of the queue. It panics
// if the queue is empty.
func (q *FIFO[T]) Pop() T {
	if q.n == 0 {
		panic("sim: Pop from empty FIFO")
	}
	b := q.head
	v := b.items[q.hi]
	var zero T
	b.items[q.hi] = zero // drop references held by the slot
	q.hi++
	q.n--
	if q.n == 0 {
		// Rewind in place: an emptied queue keeps its one block.
		q.hi, q.ti = 0, 0
		return v
	}
	if q.hi == fifoBlockLen {
		q.head, q.hi = b.next, 0
		b.next = q.spare
		q.spare = b
	}
	return v
}
