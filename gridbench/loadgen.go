package main

import (
	"sync"
	"sync/atomic"
	"time"

	"gridrank"
)

// sample is the outcome of one op of a pass. Times are offsets from the
// start of the pass.
type sample struct {
	started, done, failed bool
	dropped               bool // open loop: fell due in the window but the window closed before it was sent

	due  time.Duration // when the op was scheduled (closed loop: when sent)
	sent time.Duration // when the call began
	end  time.Duration // when the answer was complete

	hash  uint64         // reads: the answer's fingerprint
	st    gridrank.Stats // index layers: the scan's work counts
	epoch uint64         // mutations: the epoch installed

	reqBytes, respBytes int32 // HTTP layers: body sizes
}

// latency is the op's latency as a user sees it: from when it was due,
// so an open loop charges a stall to every request it delayed.
func (s *sample) latency() time.Duration { return s.end - s.due }

// service is the time the call itself took.
func (s *sample) service() time.Duration { return s.end - s.sent }

// stepper is how a pass runs its ops: prepare builds op i's request off
// the clock, call runs it and returns an optional finisher that checks
// and parses the answer once the clock has stopped.
type stepper struct {
	prepare func(i int) prepared
	call    func(i int, pr prepared, s *sample) (finish func() error)
}

// drive runs ops 0..n-1 through st and returns their samples. With
// rate > 0 it is an open loop: op i is due at i/rate seconds, and
// clients goroutines (one connection each) send ops as they fall due,
// late when all are busy. With rate == 0 it is a closed loop: clients
// goroutines each send their next op as soon as the previous completes.
// No op starts after window; an open loop still sends the ops that fell
// due in the window until window+grace, and marks those it never sent
// dropped. Every started op is waited for. spans, if not nil, records
// the spans of the first spanOps ops.
func drive(n, clients int, rate float64, window, grace time.Duration, st stepper, spans *spanLog) ([]sample, time.Duration, error) {
	samples := make([]sample, n)
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []span
			defer func() { spans.add(buf) }()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				s := &samples[i]
				prep0 := time.Since(start)
				pr := st.prepare(i)
				prep1 := time.Since(start)
				if rate > 0 {
					s.due = time.Duration(float64(i) / rate * float64(time.Second))
					if s.due >= window {
						return
					}
					if d := s.due - time.Since(start); d > 0 {
						sleepUntilDue(d)
					}
					if s.sent = time.Since(start); s.sent >= window+grace {
						return
					}
				} else {
					s.sent = time.Since(start)
					if s.sent >= window {
						return
					}
					s.due = s.sent
				}
				s.started = true
				finish := st.call(i, pr, s)
				s.end = time.Since(start)
				if finish != nil {
					if err := finish(); err != nil {
						s.failed = true
						errOnce.Do(func() { firstErr = err })
					}
				}
				s.done = true
				if spans != nil && i < spanOps {
					buf = spans.opSpans(buf, i, prep0, prep1, s.sent, s.end, time.Since(start))
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if rate > 0 {
		for i := range samples {
			s := &samples[i]
			s.due = time.Duration(float64(i) / rate * float64(time.Second))
			s.dropped = !s.started && s.due < window
		}
	}
	return samples, elapsed, firstErr
}

// lateness returns how late each sent op of an open loop went out, in ms.
func lateness(samples []sample) []float64 {
	var late []float64
	for i := range samples {
		if s := &samples[i]; s.started {
			late = append(late, ms(s.sent-s.due))
		}
	}
	return late
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
