package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one traced interval of a pass, recorded by the benchmark
// around its own calls into a layer. Spans of one op share Op; Parent
// is the id of the span that caused this one (0 for a pass's root).
type span struct {
	Pass   string `json:"pass"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps a traced pass's spans in memory. Each load-generator
// goroutine buffers its own and hands them over once, when it stops.
type spanLog struct {
	pass  string
	kinds func(i int) string // op i's class name, e.g. "rtk"
	mu    sync.Mutex
	spans []span
}

// spanOps bounds the ops per pass whose spans are kept: a traced hot
// pass sends 60000 ops, whose spans would take tens of megabytes.
const spanOps = 2500

// rootID is the id of a pass's root span; op spans are numbered from
// 4·op+1 so every span of a pass has a distinct id.
const rootID = 0

func (l *spanLog) add(buf []span) {
	if l == nil || len(buf) == 0 {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, buf...)
	l.mu.Unlock()
}

// opSpans appends op i's spans: the op itself, under the pass root, and
// its three steps — building the request, the call into the layer, and
// checking the answer.
func (l *spanLog) opSpans(buf []span, i int, prep0, prep1, sent, end, fin time.Duration) []span {
	name := l.pass + "." + l.kinds(i)
	id := int64(4*i + 1)
	return append(buf,
		span{l.pass, id, rootID, name, i, int64(prep0), int64(fin)},
		span{l.pass, id + 1, id, name + ".encode", i, int64(prep0), int64(prep1)},
		span{l.pass, id + 2, id, name + ".call", i, int64(sent), int64(end)},
		span{l.pass, id + 3, id, name + ".decode", i, int64(end), int64(fin)},
	)
}

// writeSpans writes every pass's spans, one JSON object per line, with
// a root span per pass covering its whole window.
func writeSpans(path string, logs []*spanLog, windows []time.Duration) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for pi, l := range logs {
		if err := enc.Encode(span{l.pass, rootID, -1, l.pass, -1, 0, int64(windows[pi])}); err != nil {
			f.Close()
			return err
		}
		for _, s := range l.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
