package dataset

import (
	"strings"
	"testing"

	"gridrank/internal/vec"
)

// TestFlatValidateMessages pins the flat validators to Dataset's
// messages, so the load path's errors did not change shape when it
// switched readers.
func TestFlatValidateMessages(t *testing.T) {
	fs := &FlatSet{Dim: 2, Range: 1, Data: []float64{0.5, 0.5, 0.2, 1.5}}
	ds := &Dataset{Dim: 2, Range: 1, Points: []vec.Vector{{0.5, 0.5}, {0.2, 1.5}}}
	ferr, derr := fs.Validate(), ds.Validate()
	if ferr == nil || derr == nil || ferr.Error() != derr.Error() {
		t.Fatalf("Validate messages diverge: flat %q, dataset %q", ferr, derr)
	}

	fw := &FlatSet{Dim: 2, Range: 1, Data: []float64{0.5, 0.5, 0.9, 0.2}}
	dw := &Dataset{Dim: 2, Range: 1, Points: []vec.Vector{{0.5, 0.5}, {0.9, 0.2}}}
	ferr, derr = fw.ValidateWeights(), dw.ValidateWeights()
	if ferr == nil || derr == nil || ferr.Error() != derr.Error() {
		t.Fatalf("ValidateWeights messages diverge: flat %q, dataset %q", ferr, derr)
	}
	if !strings.Contains(ferr.Error(), "sums to") {
		t.Fatalf("unexpected weight error %q", ferr)
	}
}
