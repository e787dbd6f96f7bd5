//go:build linux || darwin

package gridrank

import (
	"fmt"
	"os"
	"syscall"

	"gridrank/internal/flight"
)

// LoadMmap opens a GRI3 index file by memory-mapping it read-only: the
// matrices, cell stores, groupings and boundary table the
// queries scan are views straight into the mapping, so opening a
// multi-gigabyte catalog costs milliseconds and no copies, the OS pages
// data in on demand and evicts it under pressure, and processes serving
// the same file share one physical copy. Validation is structural (see
// gri3.go); corruption beyond the checksummed header is the trusted
// operator's problem, exactly like any other mmap-served database file.
//
// Mutations work normally — copy-on-write epochs allocate their deltas
// on the heap and leave the mapping untouched. Call Close when the
// index is no longer needed; Go's finalizers never unmap it.
func LoadMmap(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var magic [4]byte
	if _, err := f.ReadAt(magic[:], 0); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadIndexFile, err)
	}
	if err := checkMagic(magic[:]); err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(st.Size()), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("gridrank: mmap %s: %v", path, err)
	}
	// Advisory only: start readahead now so first queries don't stall on
	// page faults. Serving still works (just colder) if the hint fails.
	_ = syscall.Madvise(data, syscall.MADV_WILLNEED)
	e, dim, err := parseGRI3Image(data, false)
	if err != nil {
		syscall.Munmap(data)
		return nil, err
	}
	ix := &Index{dim: dim, mapped: [][]byte{data}, fr: flight.New(0)}
	ix.cur.Store(e)
	return ix, nil
}

func munmap(b []byte) error { return syscall.Munmap(b) }
