package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"waitfreebn/internal/rng"
)

// query is one read in the population, with its request line pre-encoded.
type query struct {
	url    string  // path and query string
	mi     bool    // /v1/mi?i=vars[0]&j=vars[1]
	vars   []int   // requested variables, in request order
	given  []int   // conditioning variables, ascending
	states []uint8 // their states
}

// cells is the size of the joint the server computes (and caches) for q.
func (q query) cells(card int) int {
	return int(math.Pow(float64(card), float64(len(q.vars)+len(q.given))))
}

// varsetKey names the variable set the server caches q's joint under.
func (q query) varsetKey() string {
	all := append(append([]int(nil), q.vars...), q.given...)
	sort.Ints(all)
	return fmt.Sprint(all)
}

// makePopulation draws read queries — marginals of 1–4 variables, with and
// without a given= clause, and MI pairs — until the distinct variable sets
// they touch hold at least minCells cells, or (for few variables) a
// thousand draws in a row add no new set.
func makePopulation(r *rng.Xoshiro256SS, nvars, card, minCells int) []query {
	seen := map[string]bool{}
	var pop []query
	for total, stale := 0, 0; total < minCells && stale < 1000; stale++ {
		var q query
		switch u := r.Float64(); {
		case u < 0.1:
			q = query{mi: true, vars: pick(r, nvars, 2)}
		case u < 0.4:
			q.vars = pick(r, nvars, 1+r.Intn(4))
		default:
			vs := pick(r, nvars, 3+r.Intn(3))
			g := 1 + r.Intn(min(2, len(vs)-1))
			q.given = append([]int(nil), vs[:g]...)
			sort.Ints(q.given)
			q.vars = vs[g:]
			for range q.given {
				q.states = append(q.states, uint8(r.Intn(card)))
			}
		}
		q.url = q.encode()
		if k := q.varsetKey(); !seen[k] {
			seen[k] = true
			total += q.cells(card)
			stale = 0
		}
		pop = append(pop, q)
	}
	return pop
}

func (q query) encode() string {
	if q.mi {
		return fmt.Sprintf("/v1/mi?i=%d&j=%d", q.vars[0], q.vars[1])
	}
	var b strings.Builder
	b.WriteString("/v1/marginal?vars=")
	b.WriteString(joinInts(q.vars))
	for k, v := range q.given {
		if k == 0 {
			b.WriteString("&given=")
		} else {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d=%d", v, q.states[k])
	}
	return b.String()
}

func joinInts(vs []int) string {
	s := make([]string, len(vs))
	for i, v := range vs {
		s[i] = strconv.Itoa(v)
	}
	return strings.Join(s, ",")
}

// pick draws k distinct variables in random order.
func pick(r *rng.Xoshiro256SS, n, k int) []int {
	return r.Perm(n)[:k]
}

// zipf draws ranks 0..n-1 with P(i) ∝ (i+1)^-s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	acc := 0.0
	for i := range cdf {
		acc += math.Pow(float64(i+1), -s)
		cdf[i] = acc
	}
	return zipf{cdf}
}

func (z zipf) draw(r *rng.Xoshiro256SS) int {
	i := sort.SearchFloat64s(z.cdf, r.Float64()*z.cdf[len(z.cdf)-1])
	return min(i, len(z.cdf)-1)
}

// makeBodies pre-encodes count ingest bodies of batch rows each, with
// per-variable states drawn Zipf(s) over the cardinality, and returns the
// rows too for the batch-build oracle.
func makeBodies(r *rng.Xoshiro256SS, count, batch, nvars, card int, s float64) ([][]byte, [][][]uint8) {
	z := newZipf(card, s)
	bodies := make([][]byte, count)
	rows := make([][][]uint8, count)
	for b := range bodies {
		buf := []byte(`{"rows":[`)
		rows[b] = make([][]uint8, batch)
		for i := range rows[b] {
			row := make([]uint8, nvars)
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, '[')
			for v := range row {
				row[v] = uint8(z.draw(r))
				if v > 0 {
					buf = append(buf, ',')
				}
				buf = strconv.AppendInt(buf, int64(row[v]), 10)
			}
			buf = append(buf, ']')
			rows[b][i] = row
		}
		bodies[b] = append(buf, "]}"...)
	}
	return bodies, rows
}

// kind is what a scheduled request does.
type kind uint8

const (
	kRead kind = iota
	kIngest
	kPoll
)

// item is one request of a schedule: when it is due (from the schedule's
// start), what it does, and which query or body it uses.
type item struct {
	at     time.Duration
	kind   kind
	idx    int
	sample bool // verify the response against the oracle
}

// stream appends a fixed-rate stream of requests over dur, shifted by a
// seeded phase so the streams of a mix interleave differently per seed.
func stream(r *rng.Xoshiro256SS, items []item, rate float64, dur time.Duration, k kind, idx func() int) []item {
	if rate <= 0 {
		return items
	}
	gap := time.Duration(float64(time.Second) / rate)
	for at := time.Duration(r.Float64() * float64(gap)); at < dur; at += gap {
		items = append(items, item{at: at, kind: k, idx: idx()})
	}
	return items
}

// rates is an open-loop traffic mix.
type rates struct{ read, ingest, poll float64 }

// schedule merges the read, ingest and epoch-poll streams of one open-loop
// phase. Ingest bodies are numbered from firstBody; every sampleEvery-th
// read is marked for the oracle.
func schedule(r *rng.Xoshiro256SS, z zipf, rt rates, dur time.Duration, firstBody, sampleEvery int) []item {
	var items []item
	items = stream(r, items, rt.read, dur, kRead, func() int { return z.draw(r) })
	next := firstBody
	items = stream(r, items, rt.ingest, dur, kIngest, func() int { next++; return next - 1 })
	items = stream(r, items, rt.poll, dur, kPoll, func() int { return 0 })
	sort.SliceStable(items, func(i, j int) bool { return items[i].at < items[j].at })
	n := 0
	for i := range items {
		if items[i].kind == kRead {
			items[i].sample = sampleEvery > 0 && n%sampleEvery == 0
			n++
		}
	}
	return items
}

// bodiesNeeded is one past the highest body index a schedule uses.
func bodiesNeeded(items []item, from int) int {
	for _, it := range items {
		if it.kind == kIngest && it.idx >= from {
			from = it.idx + 1
		}
	}
	return from
}

// client is one generator connection: a transport limited to one
// connection, the read requests pre-built, and a reused response buffer.
type client struct {
	hc    *http.Client
	tr    *http.Transport
	reads []*http.Request
	poll  *http.Request
	base  string
	buf   bytes.Buffer
}

func newClient(base string, pop []query) (*client, error) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	c := &client{hc: &http.Client{Transport: tr}, tr: tr, base: base}
	for _, q := range pop {
		req, err := http.NewRequest(http.MethodGet, base+q.url, nil)
		if err != nil {
			return nil, err
		}
		c.reads = append(c.reads, req)
	}
	var err error
	c.poll, err = http.NewRequest(http.MethodGet, base+"/v1/epoch", nil)
	return c, err
}

// do sends req (with body, for ingest) and reads the response into c.buf.
func (c *client) do(req *http.Request, body []byte) bool {
	if body != nil {
		req.Body = io.NopCloser(bytes.NewReader(body))
		req.ContentLength = int64(len(body))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return false
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return err == nil && resp.StatusCode == http.StatusOK
}

// generator drives the server over nproc connections.
type generator struct {
	clients []*client
	pop     []query
	bodies  [][]byte
	tr      *tracer
	chk     *checker

	batchRows int // rows per ingest body
	reqSeq    atomic.Uint64
	cursor    atomic.Int64 // next closed-loop read, kept across phases
	requests  atomic.Int64 // requests sent, warm-up included
	reads     atomic.Int64 // of which reads

	mu          sync.Mutex
	plainReadMs []float64         // traced phase: send→done of reads sent without spans
	acked       []int             // body indexes acknowledged, in ack order
	polls       map[int]pollReply // open-loop index → parsed /v1/epoch reply
	ackLog      []ack
}

type pollReply struct {
	sent, done time.Time
	m, pending uint64
}

type ack struct {
	done time.Time
	rows int
}

// exec sends one scheduled request on c and reports success.
func (g *generator) exec(c *client, it item, pollIdx int) bool {
	var (
		req  *http.Request
		body []byte
		name string
	)
	switch it.kind {
	case kRead:
		req, name = c.reads[it.idx], "client.read"
	case kIngest:
		body, name = g.bodies[it.idx], "client.ingest"
		var err error
		if req, err = http.NewRequest(http.MethodPost, c.base+"/v1/ingest", nil); err != nil {
			return false
		}
	case kPoll:
		req, name = c.poll, "client.epoch"
	}
	// In a traced phase every other request carries spans; the rest measure
	// the same server at the same moment without them, which is what
	// trace.overhead compares against.
	sp := -1
	traced := false
	if g.tr != nil {
		id := g.reqSeq.Add(1)
		if traced = id%2 == 0; traced {
			sp = g.tr.begin(name, -1, id)
			req.Header.Set(spanHeader, strconv.Itoa(sp))
		} else {
			req.Header.Del(spanHeader)
		}
	}
	g.requests.Add(1)
	if it.kind == kRead {
		g.reads.Add(1)
	}
	sent := time.Now()
	ok := c.do(req, body)
	g.tr.end(sp)
	if !ok {
		return false
	}
	if g.tr != nil && !traced && it.kind == kRead {
		g.mu.Lock()
		g.plainReadMs = append(g.plainReadMs, ms(time.Since(sent)))
		g.mu.Unlock()
	}
	switch it.kind {
	case kRead:
		if it.sample && g.chk != nil {
			g.chk.offer(&g.pop[it.idx], c.buf.Bytes())
		}
	case kIngest:
		g.mu.Lock()
		g.acked = append(g.acked, it.idx)
		g.ackLog = append(g.ackLog, ack{time.Now(), g.batchRows})
		g.mu.Unlock()
	case kPoll:
		m, ok1 := jsonUint(c.buf.Bytes(), `"m":`)
		pending, ok2 := jsonUint(c.buf.Bytes(), `"pending":`)
		if !ok1 || !ok2 {
			return false
		}
		g.mu.Lock()
		g.polls[pollIdx] = pollReply{sent, time.Now(), m, pending}
		g.mu.Unlock()
	}
	return true
}

// openLoop sends items at their due times from t0 over all connections.
// A request is timed from its due time; when every connection is busy it
// waits, and that wait is latency, not generator lateness.
func (g *generator) openLoop(items []item) []outcome {
	outs := make([]outcome, len(items))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, c := range g.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(items) {
					return
				}
				free := time.Now()
				due := t0.Add(items[i].at)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				ok := g.exec(c, items[i], i)
				outs[i] = outcome{due: due, free: free, sent: sent, done: time.Now(), ok: ok}
			}
		}(c)
	}
	wg.Wait()
	return outs
}

// closedLoop sends the reads (cyclically, continuing where the previous
// closed loop stopped) back to back on every connection for dur, while connection 0 also sends an ingest, bodies numbered from
// firstBody, whenever one falls due at ingestRate. It returns the read and
// ingest outcomes (timed from send), the time taken, and the next unused
// body.
func (g *generator) closedLoop(reads []int, dur time.Duration, ingestRate float64, firstBody int) (rd, wr []outcome, elapsed time.Duration, nextBody int) {
	var wg sync.WaitGroup
	per := make([][]outcome, len(g.clients))
	t0 := time.Now()
	end := t0.Add(dur)
	var gap time.Duration
	if ingestRate > 0 {
		gap = time.Duration(float64(time.Second) / ingestRate)
	}
	nextBody = firstBody
	for w, c := range g.clients {
		wg.Add(1)
		go func(w int, c *client) {
			defer wg.Done()
			due := t0.Add(gap)
			for time.Now().Before(end) {
				it := item{kind: kRead, idx: reads[int(g.cursor.Add(1)-1)%len(reads)]}
				if w == 0 && gap > 0 && !time.Now().Before(due) {
					it = item{kind: kIngest, idx: nextBody}
					nextBody++
					due = due.Add(gap)
				}
				sent := time.Now()
				ok := g.exec(c, it, -1)
				o := outcome{due: sent, free: sent, sent: sent, done: time.Now(), ok: ok}
				if it.kind == kIngest {
					wr = append(wr, o)
				} else {
					per[w] = append(per[w], o)
				}
			}
		}(w, c)
	}
	wg.Wait()
	elapsed = time.Since(t0)
	for _, o := range per {
		rd = append(rd, o...)
	}
	return rd, wr, elapsed, nextBody
}

func (g *generator) close() {
	for _, c := range g.clients {
		c.tr.CloseIdleConnections()
	}
}

// jsonUint extracts the unsigned integer following key in a JSON body.
func jsonUint(b []byte, key string) (uint64, bool) {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return 0, false
	}
	i += len(key)
	j := i
	for j < len(b) && b[j] >= '0' && b[j] <= '9' {
		j++
	}
	v, err := strconv.ParseUint(string(b[i:j]), 10, 64)
	return v, err == nil
}

// visibility returns, for every ingest ack at or after from, the time from
// the ack until a poll sent after it reported an epoch holding every row
// acked by then: base rows (the set-up table) plus the rows of every ack so
// far, those acked before from included. Acks no poll resolved before the
// run ended are counted in unresolved.
func visibility(base uint64, acks []ack, polls []pollReply, from time.Time) (ms []float64, unresolved int) {
	sort.Slice(acks, func(i, j int) bool { return acks[i].done.Before(acks[j].done) })
	sort.Slice(polls, func(i, j int) bool { return polls[i].sent.Before(polls[j].sent) })
	need := base
	p := 0
	for _, a := range acks {
		need += uint64(a.rows)
		if a.done.Before(from) {
			continue
		}
		for p < len(polls) && polls[p].sent.Before(a.done) {
			p++
		}
		found := false
		for q := p; q < len(polls); q++ {
			if polls[q].m >= need {
				ms = append(ms, float64(polls[q].done.Sub(a.done))/float64(time.Millisecond))
				found = true
				break
			}
		}
		if !found {
			unresolved++
		}
	}
	return ms, unresolved
}

// spanHeader carries the client span index to the server middleware.
const spanHeader = "X-Bench-Span"

// middleware records a handler span for every request under the client
// span named in spanHeader, and classifies reads as marginal-cache hits or
// misses from the cache counters (ambiguous when handlers overlapped).
func middleware(next http.Handler, tr *tracer, cacheHits, cacheMisses func() uint64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.Atoi(r.Header.Get(spanHeader))
		if err != nil {
			next.ServeHTTP(w, r) // an untraced request
			return
		}
		h0, m0 := cacheHits(), cacheMisses()
		start := time.Now()
		next.ServeHTTP(w, r)
		end := time.Now()
		dh, dm := cacheHits()-h0, cacheMisses()-m0
		name := "serve.epoch"
		switch {
		case r.Method == http.MethodPost:
			name = "serve.ingest"
		case strings.HasPrefix(r.URL.Path, "/v1/marginal"), strings.HasPrefix(r.URL.Path, "/v1/mi"):
			// A miss bumps the miss counter (once per lookup), a hit the
			// hit counter; a request of either kind bumps only its own, so
			// both moving means another handler overlapped.
			switch {
			case dh > 0 && dm == 0:
				name = "serve.read.hit"
			case dh == 0 && dm > 0:
				name = "serve.read.miss"
			default:
				name = "serve.read"
			}
		}
		tr.add(name, parent, tr.reqOf(parent), start, end)
	})
}
