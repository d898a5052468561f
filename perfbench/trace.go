package main

import (
	"bufio"
	"bytes"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Spans are taken at conn boundaries, from outside the program: the
// traced pass hands each server (and the router) a listener whose conns
// time every request from the Read that brings its first bytes to the
// last Write of its reply. What the wrapper changes: the server sees a
// plain net.Conn instead of *net.TCPConn, so net.Buffers falls back from
// one writev to a Write per buffer on replies ≥ 4 KiB, and every Read and
// Write pays one clock read and one uncontended lock.

// span is one request (or pipelined batch) as a server conn saw it.
// owner is the benchmark client whose key the request carried, or -1.
type span struct {
	owner      int
	start, end int64
}

// spanLog collects the spans of one server while on is set.
type spanLog struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s span) {
	if !l.on.Load() {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *spanLog) take() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.spans
	l.spans = nil
	return s
}

type spanListener struct {
	net.Listener
	log *spanLog
}

func (l *spanListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &spanConn{Conn: c, log: l.log}, nil
}

type spanConn struct {
	net.Conn
	log *spanLog

	mu          sync.Mutex
	open, wrote bool
	cur         span
}

// closeSpan ends the open span at its last Write, once one happened.
func (c *spanConn) closeSpan() {
	c.mu.Lock()
	if c.open && c.wrote {
		c.open = false
		c.log.add(c.cur)
	}
	c.mu.Unlock()
}

func (c *spanConn) Read(p []byte) (int, error) {
	c.closeSpan()
	n, err := c.Conn.Read(p)
	if n > 0 {
		now := mono()
		c.mu.Lock()
		if !c.open {
			c.open, c.wrote = true, false
			c.cur = span{owner: ownerOf(p[:n]), start: now}
		}
		c.mu.Unlock()
	}
	return n, err
}

func (c *spanConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	now := mono()
	c.mu.Lock()
	if c.open {
		c.cur.end, c.wrote = now, true
	}
	c.mu.Unlock()
	return n, err
}

func (c *spanConn) Close() error {
	c.closeSpan()
	return c.Conn.Close()
}

// ownerOf reads the owning client from the first key of a request line:
// every benchmark key starts with "c<digit>".
func ownerOf(p []byte) int {
	i := bytes.IndexByte(p, ' ')
	if i < 0 || len(p) < i+3 || p[i+1] != 'c' || p[i+2] < '0' || p[i+2] > '9' {
		return -1
	}
	return int(p[i+2] - '0')
}

func spanTotal(spans []span) (sum int64) {
	for _, s := range spans {
		sum += s.end - s.start
	}
	return sum
}

// hopNS attributes every backend span to the router span of the same
// client that contains its start (the clients keep one request in flight,
// so that span is unique) and returns the mean, over router spans, of the
// router span minus its slowest backend's summed spans.
func hopNS(router []span, backends [][]span) float64 {
	byOwner := map[int][]int{}
	for i, s := range router {
		if s.owner >= 0 {
			byOwner[s.owner] = append(byOwner[s.owner], i)
		}
	}
	for _, idx := range byOwner {
		sort.Slice(idx, func(a, b int) bool { return router[idx[a]].start < router[idx[b]].start })
	}
	perNode := make([][]int64, len(backends))
	for n, spans := range backends {
		perNode[n] = make([]int64, len(router))
		for _, s := range spans {
			idx := byOwner[s.owner]
			j := sort.Search(len(idx), func(a int) bool { return router[idx[a]].start > s.start }) - 1
			if j < 0 || router[idx[j]].end < s.start {
				continue
			}
			perNode[n][idx[j]] += s.end - s.start
		}
	}
	var sum float64
	var count int
	for i, r := range router {
		var slowest int64
		for n := range backends {
			slowest = max(slowest, perNode[n][i])
		}
		if slowest == 0 {
			continue
		}
		sum += float64(r.end - r.start - slowest)
		count++
	}
	return ratio(sum, float64(count))
}

// promText is a Prometheus text exposition read back into numbers.
type promText map[string]float64

func parseProm(b []byte) promText {
	p := promText{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		p[line[:i]] = v
	}
	return p
}

// sum adds every series of family name (any labels).
func (p promText) sum(name string) float64 {
	var s float64
	for k, v := range p {
		if k == name || strings.HasPrefix(k, name+"{") {
			s += v
		}
	}
	return s
}

// sumDelta is the growth of family name from before to after.
func sumDelta(before, after promText, name string) float64 {
	return after.sum(name) - before.sum(name)
}
