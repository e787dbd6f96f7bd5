package main

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
)

// Catalog shape shared by every workload: clustered products and
// preferences at d=6, the repository's acceptance shape.
const (
	numProducts = 4000
	numPrefs    = 1000
	dim         = 6
	valueRange  = 10000.0 // product attributes lie in [0, valueRange)
	clusterSD   = 0.1     // cluster spread, as a share of the value range

	// cacheSize is the answer-cache capacity every workload serves with.
	cacheSize = 4096

	// hotPool and hotWarm: the hot workload draws from hotPool popular
	// queries; the hottest hotWarm are cached before timing, so the
	// first visit to each of the rest is a scan (the Zipf tail).
	hotPool = 256
	hotWarm = 224
	// hotRate is hot's arrival rate, about 40% of the closed-loop
	// saturating rate of cached HTTP reads (14.5–16.7k req/s with two
	// clients on a 2-CPU Xeon VM, measured with --rate 0).
	hotRate = 6000.0

	// churnPool is far more queries than an insert's cache flush leaves
	// time to re-cache, so most churn reads scan; churnWarm of them are
	// cached before timing and checked against the oracle afterwards.
	churnPool    = 4096
	churnWarm    = 64
	churnCycle   = 20 // churn ops per insert/delete pair: 10% of ops mutate
	churnClients = 2
)

// defaultSeed is the seed the workloads are tuned on; heldOutSeed was
// not used while the benchmark was written, for checking a claim on
// inputs nobody tuned against.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

// catalogSeed generates the deployed state every run shares: the
// catalog, the popular-query pools and the standing subscriptions.
const catalogSeed = 20170321

var workloadNames = []string{"scan", "hot", "churn"}

// opKind is what one operation of an op list does.
type opKind uint8

const (
	opRTK opKind = iota
	opRKR
	opInsProduct
	opDelProduct
	opInsPref
	opDelPref
)

// class groups op kinds the way latency is reported: rtk, rkr or mut.
func (k opKind) class() int {
	switch k {
	case opRTK:
		return classRTK
	case opRKR:
		return classRKR
	default:
		return classMut
	}
}

const (
	classRTK = iota
	classRKR
	classMut
	numClasses
)

var classNames = [numClasses]string{"rtk", "rkr", "mut"}

// op is one entry of an operation list.
type op struct {
	Kind opKind
	K    int32 // reads: k
	Par  int32 // reads: requested parallelism (0 = index default)
	Vec  int32 // row of workload.Vecs: the query or the inserted vector
	ID   int32 // deletes: the id removed
}

// workload is everything one run sends: the catalog the server loads,
// the op list, and how the load generator paces it. It is a pure
// function of the workload name, the seed, the run length and the
// machine's CPU count (which sets scan's parallelism and the
// connection count).
type workload struct {
	Name     string
	Seed     int64
	Products [][]float64
	Prefs    [][]float64
	Vecs     [][]float64
	Ops      []op
	Warm     []op // run before timing, off the clock
	Monitors []op // churn: subscriptions held open during the run

	Clients int     // closed-loop clients, or open-loop connections
	Rate    float64 // open-loop arrival rate in ops/s; 0 = closed loop
}

// params describes the workload for the run fingerprint.
func (w *workload) params() map[string]any {
	loop := "closed"
	if w.Rate > 0 {
		loop = "open"
	}
	return map[string]any{
		"catalog":   fmt.Sprintf("CL %dx%d d=%d", len(w.Products), len(w.Prefs), dim),
		"loop":      loop,
		"clients":   w.Clients,
		"rate":      w.Rate,
		"ops":       len(w.Ops),
		"mix":       w.mix(),
		"cacheSize": cacheSize,
		"monitors":  len(w.Monitors),
	}
}

// mix counts the op list's entries by kind and k.
func (w *workload) mix() map[string]int {
	m := map[string]int{}
	for _, o := range w.Ops {
		switch o.Kind {
		case opRTK, opRKR:
			m[fmt.Sprintf("%s_k%d", classNames[o.Kind.class()], o.K)]++
		default:
			m["mut"]++
		}
	}
	return m
}

// encode serializes the inputs in a fixed binary form, so two
// generations can be compared byte for byte.
func (w *workload) encode() []byte {
	var b bytes.Buffer
	put := func(v any) { _ = binary.Write(&b, binary.LittleEndian, v) } // bytes.Buffer writes never fail
	for _, set := range [][][]float64{w.Products, w.Prefs, w.Vecs} {
		put(int64(len(set)))
		for _, v := range set {
			put(v)
		}
	}
	for _, ops := range [][]op{w.Ops, w.Warm, w.Monitors} {
		put(int64(len(ops)))
		put(ops)
	}
	put(int64(w.Clients))
	put(w.Rate)
	return b.Bytes()
}

// gen draws clustered vectors. Products follow the paper's CL data:
// ∛n Gaussian centroids in [0, r)^d with σ = 0.1·r, clamped into range.
// Preferences cluster around ∛n profiles drawn uniformly from the
// simplex, with σ = 0.1 noise, clipped at 0 and renormalized.
type gen struct {
	rng       *rand.Rand // the catalog's own stream
	centroids [][]float64
	profiles  [][]float64
}

func newGen(seed int64) *gen {
	g := &gen{rng: rand.New(rand.NewSource(seed))}
	g.centroids = make([][]float64, int(math.Cbrt(numProducts)))
	for i := range g.centroids {
		c := make([]float64, dim)
		for j := range c {
			c[j] = g.rng.Float64() * valueRange
		}
		g.centroids[i] = c
	}
	g.profiles = make([][]float64, int(math.Cbrt(numPrefs)))
	for i := range g.profiles {
		p := make([]float64, dim)
		var s float64
		for j := range p {
			p[j] = -math.Log(1 - g.rng.Float64())
			s += p[j]
		}
		for j := range p {
			p[j] /= s
		}
		g.profiles[i] = p
	}
	return g
}

// product draws a point of the product distribution from rng.
func (g *gen) product(rng *rand.Rand) []float64 {
	c := g.centroids[rng.Intn(len(g.centroids))]
	p := make([]float64, dim)
	for j := range p {
		x := c[j] + rng.NormFloat64()*clusterSD*valueRange
		p[j] = math.Min(math.Max(x, 0), math.Nextafter(valueRange, 0))
	}
	return p
}

// pref draws a preference vector of the preference distribution from rng.
func (g *gen) pref(rng *rand.Rand) []float64 {
	c := g.profiles[rng.Intn(len(g.profiles))]
	w := make([]float64, dim)
	for {
		var s float64
		for j := range w {
			w[j] = math.Max(0, c[j]+rng.NormFloat64()*clusterSD)
			s += w[j]
		}
		if s > 0 {
			for j := range w {
				w[j] /= s
			}
			return w
		}
	}
}

// newWorkload generates the named workload's inputs for a run of the
// given length. The catalog, the popular-query pools and the standing
// subscriptions are the deployed state: they come from catalogSeed and
// are the same in every run, so runs with different seeds measure the
// same data. seed draws the traffic: scan's queries, the Zipf request
// sequences, and the churn mutations. rate overrides hot's arrival rate
// when not negative (0 makes hot a closed loop, for measuring its
// saturating rate).
func newWorkload(name string, seed int64, seconds int, rate float64) (*workload, error) {
	g := newGen(catalogSeed)
	w := &workload{Name: name, Seed: seed}
	w.Products = make([][]float64, numProducts)
	for i := range w.Products {
		w.Products[i] = g.product(g.rng)
	}
	w.Prefs = make([][]float64, numPrefs)
	for i := range w.Prefs {
		w.Prefs[i] = g.pref(g.rng)
	}
	rng := rand.New(rand.NewSource(seed))
	nproc := int32(runtime.NumCPU())
	// query appends a fresh query vector drawn from src and returns a
	// read op on it.
	query := func(src *rand.Rand, kind opKind, k, par int32) op {
		w.Vecs = append(w.Vecs, g.product(src))
		return op{Kind: kind, K: k, Par: par, Vec: int32(len(w.Vecs) - 1)}
	}
	// pool draws n popular queries from the catalog's stream, at k=10
	// and the index's default parallelism: every fifth is a reverse
	// k-ranks query, so the kind mix under a Zipf draw is fixed. Index 0
	// is the hottest.
	pool := func(n int) []op {
		p := make([]op, n)
		for i := range p {
			kind := opRTK
			if i%5 == 4 {
				kind = opRKR
			}
			p[i] = query(g.rng, kind, 10, 0)
		}
		return p
	}
	switch name {
	case "scan":
		// One client; every query distinct and parallel, so the cache
		// never hits and the scan is the work. The kinds repeat in a
		// fixed cycle of 20 (14 RTK k=10, 3 RTK k=100, 3 RKR k=10), so
		// every run sends the same mix.
		w.Clients = 1
		draw := func(i int) op {
			switch i % 20 {
			case 3, 10, 16:
				return query(rng, opRKR, 10, nproc)
			case 6, 13, 19:
				return query(rng, opRTK, 100, nproc)
			default:
				return query(rng, opRTK, 10, nproc)
			}
		}
		for i := range 16 {
			w.Warm = append(w.Warm, draw(i))
		}
		w.Ops = make([]op, seconds*1000)
		for i := range w.Ops {
			w.Ops[i] = draw(i)
		}
	case "hot":
		// Independent users at a fixed rate, Zipfian over popular
		// queries: the cache and HTTP are the work.
		w.Clients, w.Rate = int(nproc), hotRate
		if rate >= 0 {
			w.Rate = rate
		}
		p := pool(hotPool)
		for _, o := range p[:hotWarm] {
			o.Par = nproc // warm faster; parallelism is not part of the cache key
			w.Warm = append(w.Warm, o)
		}
		z := rand.NewZipf(rng, 1.1, 1, hotPool-1)
		perSec := w.Rate
		if perSec == 0 {
			perSec = 3 * hotRate // closed loop: room for the saturating rate
		}
		w.Ops = make([]op, int(perSec)*seconds)
		for i := range w.Ops {
			w.Ops[i] = p[z.Uint64()]
		}
	case "churn":
		// Two clients; Zipfian reads with insert/delete pairs mixed in,
		// while standing subscriptions watch strong products.
		w.Clients = churnClients
		p := pool(churnPool)
		for _, o := range p[:churnWarm] {
			o.Par = nproc
			w.Warm = append(w.Warm, o)
		}
		// The subscriptions watch the catalog's strongest products (the
		// smallest attribute sums), which rank high for many users, so
		// mutations move their answer sets.
		best := make([]int, len(w.Products))
		for i := range best {
			best[i] = i
		}
		sum := func(v []float64) (s float64) {
			for _, x := range v {
				s += x
			}
			return s
		}
		slices.SortFunc(best, func(a, b int) int { return cmp.Compare(sum(w.Products[a]), sum(w.Products[b])) })
		for i, kind := range []opKind{opRTK, opRTK, opRTK, opRKR} {
			w.Vecs = append(w.Vecs, slices.Clone(w.Products[best[i]]))
			w.Monitors = append(w.Monitors, op{Kind: kind, K: 10, Vec: int32(len(w.Vecs) - 1)})
		}
		// The op list repeats a cycle of churnCycle ops: reads, every
		// fifth a reverse k-ranks query, and one insert/delete pair,
		// alternating products and preferences, so every run sends the
		// same mix. Reads are Zipf–Mandelbrot (offset 10) within each
		// kind: popular queries repeat, but too few between two inserts
		// to make cache hits the median read.
		var pools [2][]op
		for _, o := range p {
			pools[o.Kind] = append(pools[o.Kind], o)
		}
		zipf := [2]*rand.Zipf{
			rand.NewZipf(rng, 1.1, 10, uint64(len(pools[opRTK])-1)),
			rand.NewZipf(rng, 1.1, 10, uint64(len(pools[opRKR])-1)),
		}
		// Deletes pick ids that stay valid under any interleaving of
		// in-flight pairs: the counts never drop more than one per
		// client below the base.
		maxDel := int32(numProducts - 2*churnClients)
		maxDelPref := int32(numPrefs - 2*churnClients)
		reads := 0
		read := func(n int) {
			for range n {
				kind := opRTK
				if reads%5 == 4 {
					kind = opRKR
				}
				reads++
				w.Ops = append(w.Ops, pools[kind][zipf[kind].Uint64()])
			}
		}
		for cycle := 0; len(w.Ops) < seconds*400; cycle++ {
			ins, del := op{Kind: opInsProduct}, op{Kind: opDelProduct, ID: rng.Int31n(maxDel)}
			vec := g.product(rng)
			if cycle%2 == 1 {
				ins, del = op{Kind: opInsPref}, op{Kind: opDelPref, ID: rng.Int31n(maxDelPref)}
				vec = g.pref(rng)
			}
			w.Vecs = append(w.Vecs, vec)
			ins.Vec = int32(len(w.Vecs) - 1)
			// Half a cycle apart, so the two clients rarely send the
			// insert and its delete at once.
			read(churnCycle/2 - 1)
			w.Ops = append(w.Ops, ins)
			read(churnCycle/2 - 1)
			w.Ops = append(w.Ops, del)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if rate >= 0 && name != "hot" {
		return nil, fmt.Errorf("only the hot workload takes a rate")
	}
	return w, nil
}
