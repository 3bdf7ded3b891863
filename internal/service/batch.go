// Batched submit: the POST /v1/submit-batch endpoint routes many queries
// through one SubmitBatchAt per tenant-group (one domain lock, one Advance),
// and the coalescer below batches concurrent single submits the same way —
// the first goroutine to arrive at an idle group becomes the leader and
// drains everything queued behind it in shard-local batches, so N concurrent
// POST /v1/queries to one group cost one lock handoff instead of N.
package service

import (
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"repro/internal/admission"
	"repro/internal/master"
	"repro/internal/monitor"
	"repro/internal/queries"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// submitFailure maps a submit error to its HTTP status, Retry-After header
// value ("" for none), and JSON body — shared by the single and batch
// endpoints so both speak the same typed errors.
func (s *Server) submitFailure(err error) (int, string, map[string]any) {
	var ce *admission.ContractExceededError
	if errors.As(err, &ce) {
		return http.StatusTooManyRequests, s.wallRetryAfter(ce.RetryAfter), map[string]any{
			"error":               ce.Error(),
			"kind":                "contract_exceeded",
			"retry_after_virtual": ce.RetryAfter.String(),
			"brownout":            ce.Brownout,
		}
	}
	var se *admission.ShedError
	if errors.As(err, &se) {
		return http.StatusServiceUnavailable, s.wallRetryAfter(se.RetryAfter), map[string]any{
			"error":               se.Error(),
			"kind":                "shed",
			"reason":              se.Reason,
			"retry_after_virtual": se.RetryAfter.String(),
		}
	}
	var te *runtime.TimeoutError
	if errors.As(err, &te) {
		return http.StatusGatewayTimeout, s.wallRetryAfter(sim.Duration(s.retry.Backoff)), map[string]any{
			"error":    te.Error(),
			"kind":     "timeout",
			"attempts": te.Attempts,
		}
	}
	return http.StatusUnprocessableEntity, "", map[string]any{"error": err.Error()}
}

// classFor resolves a submit request's query class: a catalog ID, or raw
// SQL matched against the catalog templates (or classified as ad-hoc). The
// bool reports whether the query hit a known template.
func (s *Server) classFor(q *SubmitRequest) (*queries.Class, bool, error) {
	switch {
	case q.Query != "" && q.SQL != "":
		return nil, false, fmt.Errorf("set either query or sql, not both")
	case q.Query != "":
		cl, ok := s.cat.ByID(strings.ToUpper(strings.TrimSpace(q.Query)))
		if !ok {
			return nil, false, fmt.Errorf("unknown query class %q", q.Query)
		}
		return cl, true, nil
	case q.SQL != "":
		res, err := s.matcher.Classify(q.SQL)
		if err != nil {
			return nil, false, err
		}
		return res.Class, res.Template, nil
	default:
		return nil, false, fmt.Errorf("missing query or sql")
	}
}

// pendingSubmit is one coalesced single submit. Entries are pooled per
// coalescer; the done channel (buffered, capacity 1) is reused across
// checkouts, so a steady-state submit allocates nothing here.
type pendingSubmit struct {
	item runtime.BatchItem
	out  runtime.BatchOutcome
	done chan struct{}
}

// coalescer batches concurrent single submits to one tenant-group. The
// first arrival at an idle group becomes the leader: it drains the queue in
// batches through SubmitBatchAt, delivers each follower's outcome over its
// channel, and steps down only when the queue is empty — so followers never
// contend on the group's clock domain at all.
type coalescer struct {
	mu     sync.Mutex
	queue  []*pendingSubmit
	leader bool
	free   []*pendingSubmit

	// Leader scratch, reused across drain rounds (leader-only; the leader is
	// unique per coalescer, so no lock is needed while using them).
	batch []*pendingSubmit
	items []runtime.BatchItem
	outs  []runtime.BatchOutcome
}

// get checks a pooled entry out. Caller holds c.mu.
func (c *coalescer) get() *pendingSubmit {
	if n := len(c.free); n > 0 {
		p := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		return p
	}
	return &pendingSubmit{done: make(chan struct{}, 1)}
}

// coalescerFor returns the group's coalescer, creating it on first use.
func (s *Server) coalescerFor(g *runtime.GroupRuntime) *coalescer {
	s.coalMu.Lock()
	defer s.coalMu.Unlock()
	c := s.coalescers[g]
	if c == nil {
		c = &coalescer{}
		s.coalescers[g] = c
	}
	return c
}

// submitCoalesced submits one item through the group's coalescer and blocks
// until its outcome is known. Safe for arbitrary concurrency; per-item
// semantics are identical to a solo SubmitBatchAt (admission, retries,
// typed errors).
func (s *Server) submitCoalesced(g *runtime.GroupRuntime, item runtime.BatchItem) runtime.BatchOutcome {
	c := s.coalescerFor(g)
	c.mu.Lock()
	p := c.get()
	p.item = item
	p.out = runtime.BatchOutcome{}
	c.queue = append(c.queue, p)
	if c.leader {
		// Follower: a leader is draining; wait for it to deliver.
		c.mu.Unlock()
		<-p.done
		out := p.out
		c.mu.Lock()
		c.free = append(c.free, p)
		c.mu.Unlock()
		return out
	}
	c.leader = true
	c.mu.Unlock()

	mine := p
	var myOut runtime.BatchOutcome
	for {
		c.mu.Lock()
		if len(c.queue) == 0 {
			c.leader = false
			c.free = append(c.free, mine)
			c.mu.Unlock()
			return myOut
		}
		take := min(len(c.queue), maxCoalesced)
		c.batch = append(c.batch[:0], c.queue[:take]...)
		rest := copy(c.queue, c.queue[take:])
		for i := rest; i < len(c.queue); i++ {
			c.queue[i] = nil
		}
		c.queue = c.queue[:rest]
		c.mu.Unlock()

		c.items = c.items[:0]
		for _, q := range c.batch {
			c.items = append(c.items, q.item)
		}
		if cap(c.outs) < len(c.batch) {
			c.outs = make([]runtime.BatchOutcome, len(c.batch))
		} else {
			c.outs = c.outs[:len(c.batch)]
		}
		// Each drain round targets the current wall clock, so queued items
		// never submit at a stale virtual time.
		g.SubmitBatchAt(s.target(), c.items, c.outs, s.retry)
		for i, q := range c.batch {
			if q == mine {
				myOut = c.outs[i]
				continue
			}
			q.out = c.outs[i]
			q.done <- struct{}{}
		}
	}
}

// recordsCache caches the time-sorted records view behind GET /v1/records.
// The per-group record logs are append-only, so unchanged counts (under an
// unchanged deployment) mean the cached slice is still exact; a rebuild
// allocates a fresh slice so concurrent readers of the old one are safe.
type recordsCache struct {
	mu     sync.Mutex
	dep    *master.Deployment
	counts []int
	recs   []monitor.QueryRecord
}

// BatchSubmitRequest is the body of POST /v1/submit-batch.
type BatchSubmitRequest struct {
	Queries []SubmitRequest `json:"queries"`
}

// BatchResult is one item's outcome in a POST /v1/submit-batch response.
// Status is the per-item HTTP status (202, 400, 422, 429, 503, 504); the
// remaining fields mirror the single-submit success and error bodies.
type BatchResult struct {
	Status      int    `json:"status"`
	Tenant      string `json:"tenant"`
	Query       string `json:"query,omitempty"`
	Template    bool   `json:"template,omitempty"`
	RoutedTo    string `json:"routed_to,omitempty"`
	Retries     int    `json:"retries,omitempty"`
	SubmittedAt string `json:"submitted_at,omitempty"`

	Error             string `json:"error,omitempty"`
	Kind              string `json:"kind,omitempty"`
	RetryAfterVirtual string `json:"retry_after_virtual,omitempty"`
	Brownout          bool   `json:"brownout,omitempty"`
	Reason            string `json:"reason,omitempty"`
	Attempts          int    `json:"attempts,omitempty"`
}

// fillFailure classifies a submit error into a BatchResult — the typed
// mirror of submitFailure, allocation-light for large batches.
func fillFailure(res *BatchResult, err error) {
	var ce *admission.ContractExceededError
	if errors.As(err, &ce) {
		res.Status = http.StatusTooManyRequests
		res.Error = ce.Error()
		res.Kind = "contract_exceeded"
		res.RetryAfterVirtual = ce.RetryAfter.String()
		res.Brownout = ce.Brownout
		return
	}
	var se *admission.ShedError
	if errors.As(err, &se) {
		res.Status = http.StatusServiceUnavailable
		res.Error = se.Error()
		res.Kind = "shed"
		res.Reason = se.Reason
		res.RetryAfterVirtual = se.RetryAfter.String()
		return
	}
	var te *runtime.TimeoutError
	if errors.As(err, &te) {
		res.Status = http.StatusGatewayTimeout
		res.Error = te.Error()
		res.Kind = "timeout"
		res.Attempts = te.Attempts
		return
	}
	res.Status = http.StatusUnprocessableEntity
	res.Error = err.Error()
}

// groupBatch is one tenant-group's slice of a submit batch: the indexes of
// the batch items routed to g, in batch order.
type groupBatch struct {
	g    *runtime.GroupRuntime
	idxs []int
}

// batchScratch is the reusable working state of one handleSubmitBatch call:
// the decoded request, per-item results, partition-by-group structures, and
// the per-group item/outcome slices. Pooled so a steady stream of batches
// allocates only what JSON decoding itself must (the request strings).
type batchScratch struct {
	req     BatchSubmitRequest
	results []BatchResult
	items   []runtime.BatchItem
	order   []*groupBatch
	byGroup map[*runtime.GroupRuntime]*groupBatch
	free    []*groupBatch
	gitems  []runtime.BatchItem
	outs    []runtime.BatchOutcome
}

var batchScratchPool = sync.Pool{New: func() any {
	return &batchScratch{byGroup: make(map[*runtime.GroupRuntime]*groupBatch)}
}}

// reset returns per-call structures to their empty state, keeping capacity.
func (sc *batchScratch) reset() {
	for _, gb := range sc.order {
		gb.g = nil
		gb.idxs = gb.idxs[:0]
		sc.free = append(sc.free, gb)
	}
	sc.order = sc.order[:0]
	clear(sc.byGroup)
}

// grabGroup checks a groupBatch out of the scratch pool.
func (sc *batchScratch) grabGroup(g *runtime.GroupRuntime) *groupBatch {
	var gb *groupBatch
	if n := len(sc.free); n > 0 {
		gb = sc.free[n-1]
		sc.free[n-1] = nil
		sc.free = sc.free[:n-1]
	} else {
		gb = &groupBatch{}
	}
	gb.g = g
	return gb
}

// handleSubmitBatch routes a batch of queries. Items for the same
// tenant-group share one SubmitBatchAt call (one domain lock, one Advance);
// outcomes are strictly per item — a 429/503/504 on one entry never drops a
// healthy batch-mate. The response is always 200 with a per-item results
// array; each result carries its own status code.
func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	sc := batchScratchPool.Get().(*batchScratch)
	defer func() {
		sc.reset()
		batchScratchPool.Put(sc)
	}()
	// encoding/json reuses a decoded slice's backing array without zeroing
	// recycled elements, so stale fields from the previous request would
	// bleed into items that omit them — clear up to capacity first.
	qs := sc.req.Queries[:cap(sc.req.Queries)]
	clear(qs)
	sc.req.Queries = qs[:0]
	if !decodeBody(w, r, &sc.req) {
		return
	}
	n := len(sc.req.Queries)
	if n == 0 {
		writeErr(w, http.StatusBadRequest, "empty batch")
		return
	}
	if n > maxBatchItems {
		writeTooLarge(w, maxBatchItems, "batch of %d queries exceeds %d", n, maxBatchItems)
		return
	}
	if cap(sc.results) < n {
		sc.results = make([]BatchResult, n)
		sc.items = make([]runtime.BatchItem, n)
	} else {
		sc.results = sc.results[:n]
		clear(sc.results)
		sc.items = sc.items[:n]
		clear(sc.items)
	}
	results, items := sc.results, sc.items
	for i := range sc.req.Queries {
		q := &sc.req.Queries[i]
		results[i].Tenant = q.Tenant
		class, template, err := s.classFor(q)
		if err != nil {
			results[i].Status = http.StatusBadRequest
			results[i].Error = err.Error()
			continue
		}
		items[i] = runtime.BatchItem{
			Tenant:     q.Tenant,
			Class:      class,
			BestEffort: q.BestEffort,
		}
		results[i].Template = template
	}

	// Partition the surviving items by tenant-group, preserving batch order
	// within each group (SubmitBatchAt processes slice order).
	t := s.target()
	s.topo.RLock()
	plane := s.dep.Plane()
	for i := range items {
		if results[i].Status != 0 {
			continue
		}
		g, ref, ok := plane.ForTenantRef(items[i].Tenant)
		if !ok {
			results[i].Status = http.StatusUnprocessableEntity
			results[i].Error = "tenant " + items[i].Tenant + " not deployed"
			continue
		}
		if ref != runtime.NoTenantRef {
			items[i].Ref = ref
			items[i].HasRef = true
		}
		gb := sc.byGroup[g]
		if gb == nil {
			gb = sc.grabGroup(g)
			sc.byGroup[g] = gb
			sc.order = append(sc.order, gb)
		}
		gb.idxs = append(gb.idxs, i)
	}
	for _, gb := range sc.order {
		m := len(gb.idxs)
		if cap(sc.gitems) < m {
			sc.gitems = make([]runtime.BatchItem, m)
			sc.outs = make([]runtime.BatchOutcome, m)
		}
		gitems, outs := sc.gitems[:m], sc.outs[:m]
		for k, i := range gb.idxs {
			gitems[k] = items[i]
		}
		gb.g.SubmitBatchAt(t, gitems, outs, s.retry)
		now := gb.g.Now().String()
		for k, i := range gb.idxs {
			res := &results[i]
			if err := outs[k].Err; err != nil {
				res.Template = false
				fillFailure(res, err)
				continue
			}
			res.Status = http.StatusAccepted
			res.Query = items[i].Class.ID
			res.RoutedTo = outs[k].DB
			res.Retries = outs[k].Retries
			res.SubmittedAt = now
		}
	}
	s.topo.RUnlock()
	accepted, failed := 0, 0
	for i := range results {
		if results[i].Status == http.StatusAccepted {
			accepted++
		} else {
			failed++
		}
	}
	writeJSON(w, http.StatusOK, BatchSubmitResponse{
		Results:  results,
		Accepted: accepted,
		Failed:   failed,
	})
}

// BatchSubmitResponse is the body of a POST /v1/submit-batch response.
type BatchSubmitResponse struct {
	Results  []BatchResult `json:"results"`
	Accepted int           `json:"accepted"`
	Failed   int           `json:"failed"`
}
