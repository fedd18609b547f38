package main

import (
	"math"
	"sort"
	"time"
)

// The benchmark's inputs are generated here and only here, from the
// --seed argument. It deliberately does not reuse internal/workload's
// generators: a later change to the workload engine must not be able to
// change what this benchmark feeds the system.

// rng is splitmix64: a fixed, documented algorithm, so a seed names the
// same inputs on every Go release and every host.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	return &rng{s: uint64(seed)*0x9E3779B97F4A7C15 ^ stream*0xD1B54A32D192ED03}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// float is uniform in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// exp draws an exponential inter-arrival gap for a Poisson process.
func (r *rng) exp(perSec float64) time.Duration {
	return time.Duration(-math.Log(1-r.float()) / perSec * float64(time.Second))
}

// perm is a seeded Fisher-Yates shuffle of ids.
func (r *rng) perm(ids []string) []string {
	out := append([]string(nil), ids...)
	for i := len(out) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// zipf draws ranks 0..n-1 with P(k) proportional to 1/(k+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return zipf{cdf: cdf}
}

func (z zipf) draw(r *rng) int {
	k := sort.SearchFloat64s(z.cdf, r.float())
	return min(k, len(z.cdf)-1)
}

// Popularity model shared by boot-warm and flash-crowd: the catalog is
// split into tenants, a tenant is drawn by Zipf(s) over a seeded tenant
// ranking, and the image uniformly within the tenant.
const (
	tenants = 8
	zipfS   = 1.2
)

type catalog struct {
	byTenant [][]string
	tz       zipf
}

func newCatalog(r *rng, images []string) catalog {
	c := catalog{byTenant: make([][]string, tenants), tz: newZipf(tenants, zipfS)}
	for i, id := range r.perm(images) {
		c.byTenant[i%tenants] = append(c.byTenant[i%tenants], id)
	}
	return c
}

func (c catalog) draw(r *rng) string {
	t := c.byTenant[c.tz.draw(r)]
	return t[r.intn(len(t))]
}

// bootOp is one scheduled boot: due is its offset from the phase start
// (zero for closed-loop ops, which have no schedule).
type bootOp struct {
	due   time.Duration
	image string
	node  string
	round int // flash-crowd round whose fresh image this boots; -1 otherwise
}

// poissonBoots draws open-loop arrivals at perSec over [from, to),
// each booting an image from pick on a uniformly drawn node.
func poissonBoots(r *rng, perSec float64, from, to time.Duration, nodes []string, pick func() (string, int)) []bootOp {
	var ops []bootOp
	for t := from + r.exp(perSec); t < to; t += r.exp(perSec) {
		img, round := pick()
		ops = append(ops, bootOp{due: t, image: img, node: nodes[r.intn(len(nodes))], round: round})
	}
	return ops
}

// warmSchedule is boot-warm's input: the open-loop arrivals, then the
// op sequence the closed-loop clients cycle through.
type warmSchedule struct {
	open   []bootOp
	closed []bootOp
}

func newWarmSchedule(seed int64, images, nodes []string, openFor time.Duration) warmSchedule {
	r := newRNG(seed, 1)
	cat := newCatalog(r, images)
	pick := func() (string, int) { return cat.draw(r), -1 }
	s := warmSchedule{open: poissonBoots(r, warmRate, 0, openFor, nodes, pick)}
	for range closedOps {
		img, _ := pick()
		s.closed = append(s.closed, bootOp{image: img, node: nodes[r.intn(len(nodes))], round: -1})
	}
	return s
}

// churnSchedule is register-churn's input: the order in which the
// corpus is registered, one image per simulated hour. The order wraps
// around the corpus; the corpus is larger than the live window plus the
// retention window, so a wrapped image is never live and its blocks have
// left every retained snapshot.
func newChurnSchedule(seed int64, images []string) []string {
	return newRNG(seed, 2).perm(images)
}

// crowdSchedule is flash-crowd's input: per round, the fresh image, the
// nodes whose replica of it is dropped, and the storm's arrivals. The
// fresh images are the pool's first, in corpus order, whatever the seed:
// a few images' sizes and sharing would otherwise move the run's counts
// (diff bytes, replica size) by a tenth from seed to seed.
type crowdSchedule struct {
	fresh  []string    // image registered at the start of round k
	cold   [][]string  // nodes that drop fresh[k] right after registering it
	storm  []bootOp    // all rounds' arrivals, in due order
	verify [][2]string // the gate's Verify boots: half on catalog pairs, half on cold pairs
}

func newCrowdSchedule(seed int64, catalogIDs, pool, nodes []string, rounds int) crowdSchedule {
	r := newRNG(seed, 3)
	cat := newCatalog(r, catalogIDs)
	s := crowdSchedule{fresh: pool[:rounds]}
	for k := range rounds {
		s.cold = append(s.cold, r.perm(nodes)[:len(nodes)*coldPct/100])
		from := time.Duration(k)*crowdRound + crowdStormDelay
		s.storm = append(s.storm, poissonBoots(r, crowdRate, from, from+crowdRound, nodes, func() (string, int) {
			if r.float() < 0.5 {
				return s.fresh[k], k
			}
			return cat.draw(r), -1
		})...)
	}
	// Storm k overlaps storm k+1's first crowdStormDelay; keep due order.
	sort.SliceStable(s.storm, func(i, j int) bool { return s.storm[i].due < s.storm[j].due })
	s.verify = verifyPairs(seed, catalogIDs, nodes, verifyN/2)
	for range verifyN / 2 {
		k := r.intn(rounds)
		s.verify = append(s.verify, [2]string{s.fresh[k], s.cold[k][r.intn(len(s.cold[k]))]})
	}
	return s
}

// verifyPairs is the gate's seeded sample of (image, node) pairs.
func verifyPairs(seed int64, images, nodes []string, n int) [][2]string {
	r := newRNG(seed, 4)
	out := make([][2]string, n)
	for i := range out {
		out[i] = [2]string{images[r.intn(len(images))], nodes[r.intn(len(nodes))]}
	}
	return out
}
