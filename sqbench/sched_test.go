package main

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"
)

func ids(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%03d", prefix, i)
	}
	return out
}

// TestSchedulesDeterministic checks that a seed names the whole op
// schedule of every workload: the same seed gives an identical one, a
// different seed a different one.
func TestSchedulesDeterministic(t *testing.T) {
	imgs, nodes := ids("img", corpusN), ids("node", nodesN)
	gen := map[string]func(seed int64) any{
		"boot-warm": func(seed int64) any {
			return newWarmSchedule(seed, imgs[:catalogN], nodes, 2*time.Second)
		},
		"register-churn": func(seed int64) any { return newChurnSchedule(seed, imgs) },
		"flash-crowd": func(seed int64) any {
			return newCrowdSchedule(seed, imgs[:catalogN], imgs[catalogN:], nodes, 3)
		},
	}
	for name, g := range gen {
		a, b, c := g(1), g(1), g(2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 gave two different schedules", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same schedule", name)
		}
	}
}

func TestCrowdSchedule(t *testing.T) {
	imgs, nodes := ids("img", corpusN), ids("node", nodesN)
	const rounds = 4
	s := newCrowdSchedule(7, imgs[:catalogN], imgs[catalogN:], nodes, rounds)
	fresh := 0
	for i, o := range s.storm {
		if i > 0 && o.due < s.storm[i-1].due {
			t.Fatalf("storm not in due order at %d", i)
		}
		if o.round >= 0 {
			fresh++
			if o.image != s.fresh[o.round] {
				t.Fatalf("boot %d of round %d targets %s, want %s", i, o.round, o.image, s.fresh[o.round])
			}
		}
	}
	// Half the storm targets the fresh image, within 3 sigma.
	if n := len(s.storm); math.Abs(float64(fresh)-float64(n)/2) > 1.5*math.Sqrt(float64(n)) {
		t.Errorf("%d of %d storm boots target a fresh image, want about half", fresh, n)
	}
	for k, cold := range s.cold {
		if len(cold) != nodesN*coldPct/100 {
			t.Errorf("round %d drops %d replicas, want %d", k, len(cold), nodesN*coldPct/100)
		}
	}
	if len(s.verify) != verifyN {
		t.Errorf("%d verify pairs, want %d", len(s.verify), verifyN)
	}
}

func TestZipfSkew(t *testing.T) {
	z := newZipf(tenants, zipfS)
	r := newRNG(3, 0)
	counts := make([]int, tenants)
	for range 100000 {
		counts[z.draw(r)]++
	}
	for k := 1; k < tenants; k++ {
		if counts[k] > counts[k-1] {
			t.Errorf("rank %d drawn %d times, more than rank %d (%d)", k, counts[k], k-1, counts[k-1])
		}
	}
	// P(rank 0) = 1 / H(8, 1.2) ≈ 0.428.
	if p := float64(counts[0]) / 100000; p < 0.41 || p > 0.45 {
		t.Errorf("rank 0 share %.3f, want ≈0.428", p)
	}
}
