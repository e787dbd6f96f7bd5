package dataset

import (
	"fmt"
	"math"
)

// FlatSet is a dataset as one contiguous row-major array — the shape
// vec.MatrixFromFlat adopts without copying. The index load path
// validates its matrices through it.
type FlatSet struct {
	Dim   int
	Range float64
	Data  []float64 // len(Data)/Dim rows, row-major
}

// Validate checks every attribute lies in [0, Range] and is not NaN —
// the flat twin of Dataset.Validate, with identical messages (rows are
// never ragged here, so the dimension check is structural).
func (fs *FlatSet) Validate() error {
	if fs.Dim <= 0 {
		return fmt.Errorf("dataset: non-positive dimension %d", fs.Dim)
	}
	if fs.Range <= 0 {
		return fmt.Errorf("dataset: non-positive range %v", fs.Range)
	}
	for k, x := range fs.Data {
		if math.IsNaN(x) || x < 0 || x > fs.Range {
			return fmt.Errorf("dataset: point %d attribute %d = %v outside [0, %v]", k/fs.Dim, k%fs.Dim, x, fs.Range)
		}
	}
	return nil
}

// ValidateWeights checks every row is a legal preference vector — the
// flat twin of Dataset.ValidateWeights, same tolerance and messages.
func (fs *FlatSet) ValidateWeights() error {
	d := fs.Dim
	for i := 0; i*d < len(fs.Data); i++ {
		var sum float64
		for j, x := range fs.Data[i*d : (i+1)*d] {
			if math.IsNaN(x) || x < 0 {
				return fmt.Errorf("dataset: weight %d component %d = %v is negative or NaN", i, j, x)
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("dataset: weight %d sums to %v, want 1", i, sum)
		}
	}
	return nil
}
