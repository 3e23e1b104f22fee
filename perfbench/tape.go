package main

import (
	"errors"
	"syscall"
	"unsafe"
)

// rec is one timed request. Records and kept bodies live in anonymous
// mappings outside the Go heap, so the benchmark's own bookkeeping neither
// shows up in heap_peak_mb nor changes how often the collector runs.
type rec struct {
	doneAt, lat int64 // ns since the phase start; ns send → last body byte
	seed        int64 // cluster-fresh replay seed
	bodyOff     uint32
	bodyLen     uint32
	rootMs      float32 // root span duration, traced requests only
	replayMs    float32 // cluster-fresh reference replay time
	encodeMs    float32 // cluster-fresh reference encode time
	cls         int16   // class index
	algo, adv   int8    // cluster-fresh draw, indexes into freshAlgos/freshAdversaries
	procs       int8
	ok          bool // 200 and the reference bytes (or, until checked, just 200)
	traced      bool // the span tree was found and attributed
	fwd         bool // the root span relayed an owner's answer
}

// tape is one client's append-only record log plus an arena for bodies
// checked after the phase. The mappings are reserved, not committed: pages
// become resident only as they are written.
type tape struct {
	recs  []rec
	mem   []byte
	arena []byte
	used  int
}

var errTapeFull = errors.New("perfbench: request log full")

const (
	tapeRecs  = 1 << 21 // per client: 35k req/s for a full minute
	tapeArena = 1 << 28 // bytes of kept bodies per client
)

func mmap(n int) ([]byte, error) {
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
}

// newTape maps a record log, plus a body arena when keepBodies is set.
func newTape(keepBodies bool) (*tape, error) {
	mem, err := mmap(tapeRecs * int(unsafe.Sizeof(rec{})))
	if err != nil {
		return nil, err
	}
	t := &tape{mem: mem, recs: unsafe.Slice((*rec)(unsafe.Pointer(&mem[0])), tapeRecs)[:0]}
	if keepBodies {
		if t.arena, err = mmap(tapeArena); err != nil {
			syscall.Munmap(mem)
			return nil, err
		}
	}
	return t, nil
}

// next appends a zeroed record and returns it.
func (t *tape) next() (*rec, error) {
	if len(t.recs) == cap(t.recs) {
		return nil, errTapeFull
	}
	t.recs = t.recs[:len(t.recs)+1]
	return &t.recs[len(t.recs)-1], nil
}

// keep copies body into the arena and points r at it.
func (t *tape) keep(r *rec, body []byte) error {
	if t.used+len(body) > len(t.arena) {
		return errTapeFull
	}
	copy(t.arena[t.used:], body)
	r.bodyOff, r.bodyLen = uint32(t.used), uint32(len(body))
	t.used += len(body)
	return nil
}

func (t *tape) body(r *rec) []byte { return t.arena[r.bodyOff : r.bodyOff+r.bodyLen] }

func (t *tape) free() {
	syscall.Munmap(t.mem)
	if t.arena != nil {
		syscall.Munmap(t.arena)
	}
	t.recs, t.mem, t.arena = nil, nil, nil
}
