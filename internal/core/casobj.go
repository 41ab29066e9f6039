package core

import (
	"sync/atomic"
	"unsafe"
)

// ReadTag is an opaque token returned by NbtcLoad and passed to
// Session.AddToReadSet. It identifies the cell (value version) observed by
// the load; at commit time the transaction validates that the object still
// holds that cell (or a cell the transaction itself installed over it).
type ReadTag unsafe.Pointer

// cellHeader is the type-erased prefix of every cell. It MUST be the first
// field of cell[T] so that a *cell[T] can be viewed as a *cellHeader by the
// descriptor machinery. Both words are written plainly while the cell is
// private; once it is published they are read atomically and only ever
// cleared, atomically and once (see uninstall).
type cellHeader struct {
	// desc (*Desc) is non-nil while a transaction descriptor is installed in
	// the owning CASObj. Once nil it stays nil: the cell is a real value.
	desc unsafe.Pointer
	// prev is the cell this one was installed over: where the slot swings
	// back to on abort, and what validates reads its transaction overwrote.
	prev unsafe.Pointer
}

func (h *cellHeader) owner() *Desc { return (*Desc)(atomic.LoadPointer(&h.desc)) }

// cell is one version of a CASObj's contents, 24 bytes around a one-word
// value. val is immutable; while a descriptor is installed it is the
// speculative value, and the replaced cell (prev) holds the old one.
type cell[T comparable] struct {
	cellHeader
	val T
}

// Cell is a cell a caller supplies to CASIn or NbtcCASIn instead of having
// the CAS allocate one: a field of the node the CAS links, so that the slot,
// the cell and the node are one object. Its zero value is ready; it may go
// through any number of CASes that fail, but once one has published it, it
// belongs to the object it was published in and must not be passed again.
// Once committed it may still move on, like any committed cell, but only
// into a field of a node not yet published, by InitFrom.
type Cell[T comparable] struct {
	c cell[T]
}

// value is the cell's value; a nil cell is the zero value of T.
func (c *cell[T]) value() (v T) {
	if c != nil {
		v = c.val
	}
	return v
}

// Obj is the type-erased view of a *CASObj[T], its only implementation: the
// address of the word that holds its current cell.
type Obj interface {
	slot() *unsafe.Pointer
}

// CASObj is an augmented atomic word (the paper's CASObj<T>, Fig. 1 and
// Fig. 4). The zero value holds the zero value of T. T must be comparable;
// pointer types and small structs of pointers/booleans (e.g. marked
// references) are the intended instantiations. The paper's object is one
// 128-bit word, so a new node's field costs nothing beyond the node; here a
// field set before publication starts on the committed cell the publishing
// CAS displaces (InitFrom), and costs nothing either when its value is the
// one that cell holds.
type CASObj[T comparable] struct {
	c unsafe.Pointer // *cell[T], accessed atomically once the object is shared
}

func (o *CASObj[T]) slot() *unsafe.Pointer { return &o.c }

func (o *CASObj[T]) cas(old, new *cell[T]) bool {
	return atomic.CompareAndSwapPointer(&o.c, unsafe.Pointer(old), unsafe.Pointer(new))
}

// resolve loads the current cell, eagerly finalizing any foreign descriptor
// it encounters (the paper's tryFinalize loop). On return the cell is either
// nil (implicit zero value), a real-value cell, or a cell installed by
// `own` (when own != nil).
func (o *CASObj[T]) resolve(own *Desc) *cell[T] {
	for {
		p := atomic.LoadPointer(&o.c)
		if p == nil {
			return nil
		}
		c := (*cell[T])(p)
		d := c.owner()
		if d == nil || d == own {
			return c
		}
		d.tryFinalize(&o.c, p)
	}
}

// Load atomically reads the current value, resolving (finalizing and
// uninstalling) any descriptor found in the object: the paper's "regular
// atomic method" load. Inside a transaction it performs no read tracking.
func (o *CASObj[T]) Load() T { return o.resolve(nil).value() }

// InitFrom sets the value of an object no other goroutine can reach yet — a
// field of a node before the CAS that publishes the node — to v, with a plain
// write. t is the ReadTag of the link that CAS displaces: when the cell it
// names holds v, the field starts on that very cell, which the publication
// is about to take out of its slot, and allocates nothing. The zero value
// takes no cell, and any other v a fresh one. It never writes a cell, so a
// second call leaves the cell a first one shared as it was. Before
// publication only: afterwards use Store.
//
// A ReadTag names nil or a committed cell (NbtcLoad hands out an own
// install's prev, never the install), and a committed cell never changes, so
// the value check is all it takes. Sharing is sound only because the node is
// unpublished: the cell then enters this field for the first time (doc.go,
// "Which cells a slot may hold").
func (o *CASObj[T]) InitFrom(t ReadTag, v T) {
	var zero T
	switch c := (*cell[T])(t); {
	case v == zero:
		o.c = nil
	case c != nil && c.val == v:
		o.c = unsafe.Pointer(c)
	default:
		o.c = unsafe.Pointer(&cell[T]{val: v})
	}
}

// Store atomically replaces the current value.
func (o *CASObj[T]) Store(v T) {
	nc := &cell[T]{val: v} // private until the CAS succeeds, so one serves every retry
	for !o.cas(o.resolve(nil), nc) {
	}
}

// CAS is a plain (non-speculative) compare-and-swap on the value. It
// resolves foreign descriptors before comparing, and retries on version
// churn so long as the current value still equals expected.
func (o *CASObj[T]) CAS(expected, desired T) bool {
	return o.NbtcCASIn(nil, expected, nil, desired, false, false)
}

// CASIn is CAS publishing desired in the caller's cell in, which must never
// have been published (Cell); nil allocates one, as CAS does.
func (o *CASObj[T]) CASIn(expected T, in *Cell[T], desired T) bool {
	return o.NbtcCASIn(nil, expected, in, desired, false, false)
}

// NbtcLoad is the transactional load of Fig. 5. Outside a transaction it
// degenerates to Load. Inside a transaction it returns the speculative value
// if this transaction has a descriptor installed here (starting the
// speculation interval, per Def. 3), and otherwise the committed value. The
// returned ReadTag may be passed to Session.AddToReadSet if this load is the
// operation's immediately identifiable linearization point.
func (o *CASObj[T]) NbtcLoad(s *Session) (T, ReadTag) {
	var own *Desc
	if s != nil {
		own = s.desc
	}
	c := o.resolve(own)
	if c != nil && c.owner() != nil { // own descriptor: speculative read
		s.inSpec = true
		return c.val, ReadTag(atomic.LoadPointer(&c.prev))
	}
	return c.value(), ReadTag(unsafe.Pointer(c))
}

// NbtcCAS is the transactional CAS of Fig. 5. linPt indicates that a
// successful CAS is the operation's linearization point; pubPt indicates it
// is the publication point (Def. 3). Outside a transaction it degenerates to
// a plain CAS. Inside a transaction, CASes within the speculation interval
// are executed speculatively by installing the transaction's descriptor; the
// write takes effect only if the transaction commits.
func (o *CASObj[T]) NbtcCAS(s *Session, expected, desired T, linPt, pubPt bool) bool {
	return o.NbtcCASIn(s, expected, nil, desired, linPt, pubPt)
}

// NbtcCASIn is NbtcCAS publishing desired in the caller's cell in, which must
// never have been published (Cell); nil allocates one, as NbtcCAS does. It is
// the one CAS path: CAS, CASIn and NbtcCAS all run it.
func (o *CASObj[T]) NbtcCASIn(s *Session, expected T, in *Cell[T], desired T, linPt, pubPt bool) bool {
	var d *Desc // nil outside a transaction: every CAS is then non-critical
	if s != nil {
		d = s.desc
	}
	var nc *cell[T] // private until a CAS publishes it, so one serves every retry
	if in != nil {
		nc = &in.c
	}
	for {
		c := o.resolve(d)
		own := c != nil && c.owner() != nil // resolve leaves only d's own installed
		if own {
			s.inSpec = true
		}
		if c.value() != expected {
			return false
		}
		if pubPt && d != nil {
			s.inSpec = true
		}
		if nc == nil {
			nc = &cell[T]{}
		}
		nc.val = desired
		// Each case writes the whole header: a caller's cell may come from a
		// failed install that left its descriptor in it.
		switch {
		case own:
			// Own descriptor already installed here: speculative update of
			// the pending new value (paper Fig. 5 line 34). It inherits prev,
			// so an abort restores the cell from before our first install.
			nc.desc, nc.prev = unsafe.Pointer(d), atomic.LoadPointer(&c.prev)
			if o.cas(c, nc) {
				if linPt {
					s.inSpec = false
				}
				return true
			}
			// a helper aborted us and swung the slot back; re-resolve
		case d == nil || !s.inSpec:
			// Non-critical CAS: execute on the fly (methodology step 1).
			nc.desc, nc.prev = nil, nil
			if o.cas(c, nc) {
				return true
			}
		default:
			// Critical CAS: install the descriptor (methodology step 2).
			nc.desc, nc.prev = unsafe.Pointer(d), unsafe.Pointer(c)
			if !o.cas(c, nc) {
				return false // contention; let the data structure retry its loop
			}
			cpInstall.Hit()
			d.writeSet = append(d.writeSet, &o.c)
			atomic.AddUint64(&s.st.Installs, 1)
			if linPt {
				s.inSpec = false
			}
			return true
		}
	}
}
