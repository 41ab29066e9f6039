package core

import "sync/atomic"

// EnterAsHelper is a helper that tripped over the cell installed in o, taken
// as far into tryFinalize as its re-check: it holds the count of the
// descriptor the cell names, which it returns. LeaveAsHelper is the rest.
func EnterAsHelper(o Obj) *Desc {
	found := atomic.LoadPointer(o.slot())
	d := (*cellHeader)(found).owner()
	d.helpers.Add(1)
	if atomic.LoadPointer(o.slot()) != found || (*cellHeader)(found).owner() != d {
		panic("EnterAsHelper: the re-check failed")
	}
	return d
}

// LeaveAsHelper finishes what EnterAsHelper began: finalize, then the
// decrement.
func (d *Desc) LeaveAsHelper(o Obj) {
	d.finalize(o.slot())
	d.helpers.Add(-1)
}
