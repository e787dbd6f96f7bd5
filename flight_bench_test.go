package gridrank

// BenchmarkFlightRecorderOverhead prices the always-on flight recorder
// on the query path (go test -bench FlightRecorderOverhead):
//
//   - off: Options.FlightCapacity = -1, the recorder fully disabled —
//     the pre-recorder baseline.
//   - on:  the default always-on recorder, every query writing one
//     fixed-size digest into the ring.
//
// The two must stay within noise of each other: recording is a
// timestamp, a cursor increment, one slot CAS pair and a struct copy —
// zero allocations (TestFlightZeroAllocOverhead pins that exactly).

import (
	"context"
	"testing"
)

func BenchmarkFlightRecorderOverhead(b *testing.B) {
	P, err := GenerateProducts(1, Uniform, 4000, 6)
	if err != nil {
		b.Fatal(err)
	}
	W, err := GeneratePreferences(2, Uniform, 1000, 6)
	if err != nil {
		b.Fatal(err)
	}
	q := P[len(P)/2]
	ctx := context.Background()

	run := func(b *testing.B, opts *Options) {
		ix, err := New(P, W, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ix.ReverseTopKCtx(ctx, q, 100); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, &Options{FlightCapacity: -1}) })
	b.Run("on", func(b *testing.B) { run(b, nil) })
}
