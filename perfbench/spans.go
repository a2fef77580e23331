package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pktclass/internal/core"
	"pktclass/internal/packet"
)

// span is one timed call into a layer, recorded from outside the program.
type span struct {
	name       string
	parent     int32 // -1 for a root span
	start, end int64 // ns since the log began
	pkts       int32
}

// spanLog keeps every span of a traced run in memory. Spans recorded on the
// partition pool's goroutines take as parent the span the driver goroutine
// marked current in cur.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	cur   atomic.Int32
}

func newSpanLog() *spanLog {
	l := &spanLog{t0: time.Now(), spans: make([]span, 0, 1<<16)}
	l.cur.Store(-1)
	return l
}

func (l *spanLog) now() int64 { return int64(time.Since(l.t0)) }

// open reserves an id for a span whose children end before it does.
func (l *spanLog) open() int32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{parent: -1})
	return int32(len(l.spans) - 1)
}

func (l *spanLog) close(id int32, name string, parent int32, start, end int64, pkts int) {
	l.mu.Lock()
	l.spans[id] = span{name: name, parent: parent, start: start, end: end, pkts: int32(pkts)}
	l.mu.Unlock()
}

func (l *spanLog) add(name string, parent int32, start, end int64, pkts int) {
	l.mu.Lock()
	l.spans = append(l.spans, span{name: name, parent: parent, start: start, end: end, pkts: int32(pkts)})
	l.mu.Unlock()
}

func (l *spanLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// layerTime sums, over the spans named name, their duration and (self)
// their duration minus the part of it their child spans cover.
func (l *spanLog) layerTime(name string) (total, self time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	kids := map[int32][][2]int64{}
	for _, s := range l.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	for i, s := range l.spans {
		if s.name != name {
			continue
		}
		d := s.end - s.start
		total += time.Duration(d)
		self += time.Duration(d - covered(kids[int32(i)], s.start, s.end))
	}
	return total, self
}

// covered is the length of the union of intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum int64
	cur := lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			sum += e - s
			cur = e
		}
	}
	return sum
}

// write stores the spans gzip-compressed as tab-separated lines: id,
// parent, name, start and end in ns since the run began, and packets.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed) // a valid level cannot fail
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id\tparent\tname\tstart_ns\tend_ns\tpkts")
	l.mu.Lock()
	for i, s := range l.spans {
		fmt.Fprintf(bw, "%d\t%d\t%s\t%d\t%d\t%d\n", i, s.parent, s.name, s.start, s.end, s.pkts)
	}
	l.mu.Unlock()
	err = bw.Flush()
	if err == nil {
		err = zw.Close()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// timedEngine records a span around every batch the wrapped engine
// classifies, as a child of the span the driver goroutine marked current;
// wrappers around the partition's sub-engines run on pool goroutines.
type timedEngine struct {
	core.Engine
	name string
	log  *spanLog
}

func (t *timedEngine) ClassifyBatch(hdrs []packet.Header, out []int) {
	parent := t.log.cur.Load()
	start := t.log.now()
	core.ClassifyBatchInto(t.Engine, hdrs, out)
	t.log.add(t.name, parent, start, t.log.now(), len(hdrs))
}
