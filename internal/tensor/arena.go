package tensor

// Arena is a bump allocator for tensors that share one lifetime: a caller
// that rebuilds the same transient computation every iteration (the
// autograd tape of one optimization step) allocates its intermediate
// tensors from an arena and recycles all of them with a single Reset,
// instead of feeding the garbage collector thousands of short-lived
// slices per step.
//
// Tensors allocated from an arena are tagged with it, and every tensor
// operation that materializes a result (Add, MatVec, Conv2D, …) allocates
// that result from the first tagged operand's arena. The tag therefore
// propagates through a computation automatically once its roots are
// arena-backed; Adopt tags an existing heap tensor as such a root without
// moving its storage.
//
// Reset invalidates every tensor previously allocated from the arena: the
// next allocations reuse the same memory. Results that must outlive the
// iteration are copied out with Clone, which always allocates from the
// heap. An Arena is confined to one goroutine.
type Arena struct {
	data   [][]float64
	di, do int // current data block, offset
	hdr    [][]Tensor
	hi, ho int
	dims   [][]int
	mi, mo int

	aux      any    // client allocator recycled with the arena (SetAux)
	auxReset func() // invoked at the start of every Reset
}

// Arena block sizes: data blocks hold the flat float64 payloads, header
// blocks the Tensor structs, dim blocks the shape ints. Oversized requests
// get a dedicated block.
const (
	arenaDataBlock = 1 << 15
	arenaHdrBlock  = 1 << 10
	arenaDimBlock  = 1 << 12
)

// NewArena returns an empty arena. Blocks are allocated lazily on first
// use and retained across Reset.
func NewArena() *Arena { return &Arena{} }

// Reset recycles every allocation made since the previous Reset. Tensors
// handed out before the call must no longer be used: their storage is
// reused by subsequent allocations.
func (a *Arena) Reset() {
	if a.auxReset != nil {
		a.auxReset()
	}
	a.di, a.do = 0, 0
	a.hi, a.ho = 0, 0
	a.mi, a.mo = 0, 0
}

// SetAux attaches a client-owned auxiliary allocator whose lifetime
// tracks the arena's: onReset runs at the start of every Reset, recycling
// the client allocations together with the tensors they reference. The
// autograd engine uses this to recycle graph-node structs alongside the
// arena-backed value tensors they wrap.
func (a *Arena) SetAux(aux any, onReset func()) {
	a.aux, a.auxReset = aux, onReset
}

// Aux returns the allocator attached with SetAux, or nil.
func (a *Arena) Aux() any { return a.aux }

// allocData returns a zeroed float64 span of length n from the arena.
func (a *Arena) allocData(n int) []float64 {
	for a.di < len(a.data) && len(a.data[a.di])-a.do < n {
		a.di++
		a.do = 0
	}
	if a.di == len(a.data) {
		size := arenaDataBlock
		if n > size {
			size = n
		}
		a.data = append(a.data, make([]float64, size))
		a.do = 0
	}
	s := a.data[a.di][a.do : a.do+n : a.do+n]
	a.do += n
	clear(s)
	return s
}

// allocDims returns an int span of length n (shape storage, overwritten by
// the caller).
func (a *Arena) allocDims(n int) []int {
	for a.mi < len(a.dims) && len(a.dims[a.mi])-a.mo < n {
		a.mi++
		a.mo = 0
	}
	if a.mi == len(a.dims) {
		size := arenaDimBlock
		if n > size {
			size = n
		}
		a.dims = append(a.dims, make([]int, size))
		a.mo = 0
	}
	s := a.dims[a.mi][a.mo : a.mo+n : a.mo+n]
	a.mo += n
	return s
}

// header returns an arena-tagged Tensor struct wrapping data under a copy
// of shape.
func (a *Arena) header(shape []int, data []float64) *Tensor {
	for a.hi < len(a.hdr) && a.ho == len(a.hdr[a.hi]) {
		a.hi++
		a.ho = 0
	}
	if a.hi == len(a.hdr) {
		a.hdr = append(a.hdr, make([]Tensor, arenaHdrBlock))
		a.ho = 0
	}
	t := &a.hdr[a.hi][a.ho]
	a.ho++
	var sh []int
	if len(shape) > 0 {
		sh = a.allocDims(len(shape))
		copy(sh, shape)
	}
	t.shape = sh
	t.data = data
	t.ar = a
	return t
}

// New returns a zero-filled tensor of the given shape allocated from the
// arena. It is the arena-backed equivalent of the package-level New.
func (a *Arena) New(shape ...int) *Tensor {
	return a.header(shape, a.allocData(numel(shape)))
}

// Adopt tags t with the arena so results derived from t allocate from it.
// t's own storage is untouched: it remains heap-owned, survives Reset, and
// is the intended way to root an arena-backed computation at a persistent
// input tensor.
func (a *Arena) Adopt(t *Tensor) { t.ar = a }

// NewLike returns a zero-filled tensor of the given shape, allocated from
// like's arena when like is arena-tagged and from the heap otherwise. It
// is the allocation chokepoint of every tensor operation that materializes
// a result from one operand.
func NewLike(like *Tensor, shape ...int) *Tensor {
	if like != nil && like.ar != nil {
		return like.ar.New(shape...)
	}
	return New(shape...)
}

// FullLike is NewLike with every element set to v.
func FullLike(like *Tensor, v float64, shape ...int) *Tensor {
	t := NewLike(like, shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// newResult allocates the result tensor of a binary operation: from a's
// arena if tagged, else from b's, else from the heap. Either operand may
// be nil.
func newResult(a, b *Tensor, shape ...int) *Tensor {
	if a != nil && a.ar != nil {
		return a.ar.New(shape...)
	}
	return NewLike(b, shape...)
}
