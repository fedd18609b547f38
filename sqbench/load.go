package main

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one open-loop op's timing.
type sample struct {
	lat  time.Duration // completion minus due time
	wait time.Duration // time the arrival waited for a free executor
	lag  time.Duration // how late the executor started past the moment it could
}

// openLoop starts op i at start+due(i) on at most workers executors,
// and times it from its due time, so a stall also charges the wait it
// imposes on the arrivals behind it.
func openLoop(start time.Time, n, workers int, due func(i int) time.Duration, do func(i int)) []sample {
	out := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				d := start.Add(due(i))
				picked := time.Now()
				if w := d.Sub(picked); w > 0 {
					time.Sleep(w)
				}
				could := d
				if picked.After(d) {
					could = picked
				}
				begin := time.Now()
				do(i)
				out[i] = sample{lat: time.Since(d), wait: max(0, picked.Sub(d)), lag: begin.Sub(could)}
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop runs workers clients that each issue their next op as soon
// as the previous one completes, until dur has elapsed. Op i is the i-th
// issued overall. It returns each op's latency and the phase's elapsed time.
func closedLoop(workers int, dur time.Duration, do func(i int)) (lats []time.Duration, elapsed time.Duration) {
	var next atomic.Int64
	var mu sync.Mutex
	start := time.Now()
	end := start.Add(dur)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []time.Duration
			for time.Now().Before(end) {
				i := int(next.Add(1) - 1)
				t := time.Now()
				do(i)
				mine = append(mine, time.Since(t))
			}
			mu.Lock()
			lats = append(lats, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return lats, time.Since(start)
}

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile[T cmp.Ordered](xs []T, q float64) T {
	var zero T
	if len(xs) == 0 {
		return zero
	}
	slices.Sort(xs)
	k := int(q*float64(len(xs))+0.999999) - 1
	return xs[min(max(k, 0), len(xs)-1)]
}

// mean is the arithmetic mean of xs, 0 when there are none.
func mean[T int | int64](xs []T) float64 {
	var sum T
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(max(len(xs), 1))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
