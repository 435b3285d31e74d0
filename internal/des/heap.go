package des

// minHeap is a binary min-heap ordered by T.before. It holds the engine's
// event queue and its post buffer. Every key either type
// pushes is unique, so the pop order is fully determined by before.
type minHeap[T interface{ before(T) bool }] []T

func (h *minHeap[T]) push(x T) {
	*h = append(*h, x)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s[i].before(s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *minHeap[T]) pop() T {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	var zero T
	s[n] = zero // drop the reference the backing array would keep
	s = s[:n]
	*h = s
	for i := 0; ; {
		small, l, r := i, 2*i+1, 2*i+2
		if l < n && s[l].before(s[small]) {
			small = l
		}
		if r < n && s[r].before(s[small]) {
			small = r
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	return top
}
