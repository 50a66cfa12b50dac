// Package queue implements PROTEAN's request batching and reordering
// (§4.1): incoming requests are grouped into per-model batches
// (strict and best-effort requests batch separately), and sealed batches
// wait in a two-class queue where strict batches are served first.
package queue

import (
	"errors"
	"fmt"
	"sort"

	"protean/internal/model"
	"protean/internal/obs"
	"protean/internal/pool"
	"protean/internal/sim"
	"protean/internal/trace"
)

// Batch is a group of same-model, same-strictness requests served by one
// container invocation.
type Batch struct {
	// ID is the batch's trace-correlation id, unique per Batcher and
	// starting at 1 (0 means "untracked", e.g. hand-built test batches).
	ID uint64
	// Model is the inference model the batch invokes.
	Model *model.Model
	// Strict marks batches of strict-SLO requests.
	Strict bool
	// Requests are the member requests in arrival order.
	Requests []trace.Request
	// Sealed is the virtual time the batch stopped accepting requests.
	Sealed float64

	seq uint64
}

// Size returns the number of requests in the batch.
func (b *Batch) Size() int { return len(b.Requests) }

// FirstArrival returns the arrival time of the oldest member request.
func (b *Batch) FirstArrival() float64 {
	if len(b.Requests) == 0 {
		return b.Sealed
	}
	return b.Requests[0].Arrival
}

// String implements fmt.Stringer.
func (b *Batch) String() string {
	kind := "be"
	if b.Strict {
		kind = "strict"
	}
	return fmt.Sprintf("batch(%s, %s, %d reqs)", b.Model.Name(), kind, b.Size())
}

// Batcher accumulates requests into batches of the model's batch size,
// sealing a partial batch when the batching window expires so requests
// never wait unboundedly.
//
// Sealed batches, partial-batch shells, and request buffers are
// recycled through deterministic freelists: callers hand finished
// batches back via Release, and steady-state batching allocates
// nothing per batch. All Batcher methods — including Release — must run
// in the batcher's lane context or in a root event.
type Batcher struct {
	sim    *sim.Sim
	window float64
	emit   func(*Batch)

	pending map[batchKey]*partialBatch
	nextID  uint64

	batchFree pool.Free[Batch]
	pbFree    pool.Free[partialBatch]
	// reqFree recycles request-buffer capacity from released batches
	// into new partial batches.
	reqFree [][]trace.Request
}

type batchKey struct {
	model  string
	strict bool
}

type partialBatch struct {
	id       uint64
	model    *model.Model
	strict   bool
	requests []trace.Request
	timer    *sim.Timer
}

// DefaultWindow is the default batching window in seconds.
const DefaultWindow = 0.050

// NewBatcher returns a Batcher sealing batches after at most window
// seconds and delivering them to emit.
func NewBatcher(s *sim.Sim, window float64, emit func(*Batch)) (*Batcher, error) {
	if s == nil {
		return nil, errors.New("queue: nil sim")
	}
	if window <= 0 {
		return nil, fmt.Errorf("queue: window %v must be positive", window)
	}
	if emit == nil {
		return nil, errors.New("queue: nil emit func")
	}
	b := &Batcher{
		sim:     s,
		window:  window,
		emit:    emit,
		pending: make(map[batchKey]*partialBatch),
	}
	b.batchFree.Reset = func(x *Batch) { *x = Batch{} }
	b.pbFree.Reset = func(x *partialBatch) { *x = partialBatch{} }
	return b, nil
}

// Release returns a finished batch to the freelist. The caller must be
// completely done with the batch AND its Requests slice: both may be
// handed to an unrelated batch on the next seal. Call only from the
// batcher's lane or from a root event.
func (b *Batcher) Release(batch *Batch) {
	if batch == nil {
		return
	}
	if cap(batch.Requests) > 0 {
		b.reqFree = append(b.reqFree, batch.Requests[:0])
		batch.Requests = nil
	}
	b.batchFree.Put(batch)
}

// PoolStats aggregates the batcher's freelist counters (batch and
// partial-batch shells).
func (b *Batcher) PoolStats() pool.Stats {
	st := b.batchFree.Stats()
	st.Add(b.pbFree.Stats())
	return st
}

// Add folds one request into its batch, sealing the batch when full.
func (b *Batcher) Add(req trace.Request) error {
	if req.Model == nil {
		return errors.New("queue: request without model")
	}
	key := batchKey{model: req.Model.Name(), strict: req.Strict}
	pb, ok := b.pending[key]
	if !ok {
		b.nextID++
		pb = b.pbFree.Get()
		pb.id = b.nextID
		pb.model = req.Model
		pb.strict = req.Strict
		if n := len(b.reqFree); n > 0 && pb.requests == nil {
			pb.requests = b.reqFree[n-1]
			b.reqFree[n-1] = nil
			b.reqFree = b.reqFree[:n-1]
		}
		b.pending[key] = pb
		key := key
		pb.timer = b.sim.MustAfter(b.window, func() { b.seal(key) })
	}
	pb.requests = append(pb.requests, req)
	if tr := b.sim.Tracer(); tr.Enabled() {
		ev := obs.At(b.sim.Now(), obs.KindArrival)
		ev.Batch = pb.id
		ev.Model = req.Model.Name()
		ev.Strict = req.Strict
		ev.Requests = 1
		tr.Emit(ev)
	}
	if len(pb.requests) >= req.Model.BatchSize() {
		b.seal(key)
	}
	return nil
}

// Pending returns the number of requests waiting in unsealed batches.
func (b *Batcher) Pending() int {
	n := 0
	for _, pb := range b.pending {
		n += len(pb.requests)
	}
	return n
}

// Flush seals every partial batch immediately (end of trace). Batches
// are sealed in sorted key order so the emitted sequence — and every
// queueing decision downstream of it — is reproducible.
func (b *Batcher) Flush() {
	keys := make([]batchKey, 0, len(b.pending))
	for key := range b.pending {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].model != keys[j].model {
			return keys[i].model < keys[j].model
		}
		return keys[i].strict && !keys[j].strict
	})
	for _, key := range keys {
		b.seal(key)
	}
}

func (b *Batcher) seal(key batchKey) {
	pb, ok := b.pending[key]
	if !ok || len(pb.requests) == 0 {
		return
	}
	delete(b.pending, key)
	pb.timer.Cancel()
	batch := b.batchFree.Get()
	batch.ID = pb.id
	batch.Model = pb.model
	batch.Strict = pb.strict
	batch.Requests = pb.requests
	batch.Sealed = b.sim.Now()
	// The request buffer moved into the batch; recycle the shell.
	pb.requests = nil
	b.pbFree.Put(pb)
	if tr := b.sim.Tracer(); tr.Enabled() {
		ev := obs.At(batch.Sealed, obs.KindBatchSeal)
		ev.Batch = batch.ID
		ev.Model = batch.Model.Name()
		ev.Strict = batch.Strict
		ev.Requests = batch.Size()
		// Carry the oldest member's arrival so span assembly works on
		// traces whose per-request arrival events were filtered out.
		ev.Value = batch.FirstArrival()
		tr.Emit(ev)
	}
	b.emit(batch)
}

// ReorderQueue is the dispatch queue of §4.1. With reordering enabled,
// strict batches are always dequeued before best-effort batches; within
// a class, batches leave in FIFO order. With reordering disabled it is a
// plain FIFO.
type ReorderQueue struct {
	prioritize bool
	nextSeq    uint64
	strict     []*Batch
	be         []*Batch
}

// NewReorderQueue returns a queue; prioritize enables strict-first
// reordering.
func NewReorderQueue(prioritize bool) *ReorderQueue {
	return &ReorderQueue{prioritize: prioritize}
}

// Push enqueues a batch.
func (q *ReorderQueue) Push(b *Batch) {
	b.seq = q.nextSeq
	q.nextSeq++
	if b.Strict {
		q.strict = append(q.strict, b)
	} else {
		q.be = append(q.be, b)
	}
}

// Pop dequeues the next batch, honouring the reordering policy.
func (q *ReorderQueue) Pop() (*Batch, bool) {
	pick := func(fromStrict bool) *Batch {
		if fromStrict {
			b := q.strict[0]
			q.strict = q.strict[1:]
			return b
		}
		b := q.be[0]
		q.be = q.be[1:]
		return b
	}
	switch {
	case len(q.strict) == 0 && len(q.be) == 0:
		return nil, false
	case len(q.strict) == 0:
		return pick(false), true
	case len(q.be) == 0:
		return pick(true), true
	case q.prioritize:
		return pick(true), true
	default:
		// FIFO across classes by global sequence.
		return pick(q.strict[0].seq < q.be[0].seq), true
	}
}

// Len returns the number of queued batches.
func (q *ReorderQueue) Len() int { return len(q.strict) + len(q.be) }

// StrictLen returns the number of queued strict batches.
func (q *ReorderQueue) StrictLen() int { return len(q.strict) }

// BEMemGB returns the total memory footprint of queued best-effort
// batches for the given per-batch memory function — the BE_mem input of
// Algorithm 1.
func (q *ReorderQueue) BEMemGB(memOf func(*model.Model) float64) float64 {
	total := 0.0
	for _, b := range q.be {
		total += memOf(b.Model)
	}
	return total
}

// BECount returns the number of queued best-effort batches.
func (q *ReorderQueue) BECount() int { return len(q.be) }
