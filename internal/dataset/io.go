package dataset

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"gridrank/internal/vec"
)

// Binary file layout (little endian):
//
//	magic   uint32  'G''R''D''1'
//	dim     uint32
//	count   uint64
//	range   float64
//	data    count × dim × float64
//
// The format exists so that Table 2's "reading data" row can be measured
// against a real on-disk representation, and so the CLI tools can exchange
// data sets.

const binaryMagic = 0x31445247 // "GRD1" little-endian

// ErrBadFormat reports a corrupt or non-dataset file.
var ErrBadFormat = errors.New("dataset: bad file format")

// WriteBinary writes ds to w in the library's binary format.
func WriteBinary(w io.Writer, ds *Dataset) error {
	bw := bufio.NewWriter(w)
	hdr := make([]byte, 4+4+8+8)
	binary.LittleEndian.PutUint32(hdr[0:], binaryMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(ds.Dim))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(ds.Points)))
	binary.LittleEndian.PutUint64(hdr[16:], math.Float64bits(ds.Range))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	buf := make([]byte, 8*ds.Dim)
	for _, p := range ds.Points {
		if len(p) != ds.Dim {
			return fmt.Errorf("dataset: point has dimension %d, want %d", len(p), ds.Dim)
		}
		for j, x := range p {
			binary.LittleEndian.PutUint64(buf[8*j:], math.Float64bits(x))
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// readBinary reads a data set written by WriteBinary.
func readBinary(r io.Reader) (*Dataset, error) {
	br := bufio.NewReader(r)
	hdr := make([]byte, 4+4+8+8)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != binaryMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadFormat)
	}
	dim := int(binary.LittleEndian.Uint32(hdr[4:]))
	count := binary.LittleEndian.Uint64(hdr[8:])
	rng := math.Float64frombits(binary.LittleEndian.Uint64(hdr[16:]))
	if dim <= 0 || dim > 1<<16 {
		return nil, fmt.Errorf("%w: implausible dimension %d", ErrBadFormat, dim)
	}
	if count > 1<<33 {
		return nil, fmt.Errorf("%w: implausible count %d", ErrBadFormat, count)
	}
	// Allocate incrementally rather than trusting the header count: a
	// corrupt header must not be able to force a huge up-front allocation.
	initial := count
	if initial > 1<<16 {
		initial = 1 << 16
	}
	ds := &Dataset{Dim: dim, Range: rng, Points: make([]vec.Vector, 0, initial)}
	buf := make([]byte, 8*dim)
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("%w: truncated at point %d: %v", ErrBadFormat, i, err)
		}
		p := make(vec.Vector, dim)
		for j := range p {
			p[j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*j:]))
		}
		ds.Points = append(ds.Points, p)
	}
	return ds, nil
}

// SaveBinary writes ds to the named file.
func SaveBinary(path string, ds *Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBinary(f, ds); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadBinary reads a data set from the named file.
func LoadBinary(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readBinary(f)
}

// WriteCSV writes ds as comma-separated rows, one vector per line, with a
// leading "# dim=<d> range=<r>" comment so CSV round-trips preserve the
// declared range.
func WriteCSV(w io.Writer, ds *Dataset) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# dim=%d range=%g\n", ds.Dim, ds.Range); err != nil {
		return err
	}
	for _, p := range ds.Points {
		for j, x := range p {
			if j > 0 {
				if err := bw.WriteByte(','); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.FormatFloat(x, 'g', -1, 64)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV reads a data set written by WriteCSV. Files without the header
// comment are accepted; the range then defaults to the max value seen
// (rounded up) and the dimension to that of the first row.
func ReadCSV(r io.Reader) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	ds := &Dataset{}
	maxSeen := 0.0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			parseCSVHeader(line, ds)
			continue
		}
		fields := strings.Split(line, ",")
		p := make(vec.Vector, len(fields))
		for j, f := range fields {
			x, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("%w: row %d: %v", ErrBadFormat, len(ds.Points)+1, err)
			}
			p[j] = x
			if x > maxSeen {
				maxSeen = x
			}
		}
		if ds.Dim == 0 {
			ds.Dim = len(p)
		} else if len(p) != ds.Dim {
			return nil, fmt.Errorf("%w: row %d has %d fields, want %d", ErrBadFormat, len(ds.Points)+1, len(p), ds.Dim)
		}
		ds.Points = append(ds.Points, p)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if ds.Range == 0 {
		ds.Range = math.Max(1, math.Ceil(maxSeen))
	}
	if ds.Dim == 0 {
		return nil, fmt.Errorf("%w: empty file", ErrBadFormat)
	}
	return ds, nil
}

func parseCSVHeader(line string, ds *Dataset) {
	for _, tok := range strings.Fields(strings.TrimPrefix(line, "#")) {
		if v, ok := strings.CutPrefix(tok, "dim="); ok {
			if n, err := strconv.Atoi(v); err == nil {
				ds.Dim = n
			}
		}
		if v, ok := strings.CutPrefix(tok, "range="); ok {
			if r, err := strconv.ParseFloat(v, 64); err == nil {
				ds.Range = r
			}
		}
	}
}
