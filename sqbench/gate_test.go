package main

import (
	"errors"
	"testing"

	"repro/internal/core"
)

func anyImage(t *testing.T) string {
	for id := range images {
		return id
	}
	t.Fatal("empty benchmark corpus")
	return ""
}

// TestCheckBoot feeds the gate boot reports with one output broken at a
// time; each must be caught.
func TestCheckBoot(t *testing.T) {
	id := anyImage(t)
	size := images[id].CacheSize()
	warm := core.BootReport{ImageID: id, NodeID: "n0", Warm: true, CacheBytes: size, ReadBytes: size}
	cold := core.BootReport{ImageID: id, NodeID: "n0", PeerBytes: size - 100, NetworkBytes: 100, ReadBytes: size}
	if err := checkBoot(warm, true); err != nil {
		t.Fatalf("sound warm boot rejected: %v", err)
	}
	if err := checkBoot(cold, false); err != nil {
		t.Fatalf("sound cold boot rejected: %v", err)
	}
	broken := map[string]struct {
		rep  core.BootReport
		warm bool
	}{
		"short read":      {func() core.BootReport { r := warm; r.ReadBytes--; r.CacheBytes--; return r }(), true},
		"bytes unsourced": {func() core.BootReport { r := cold; r.NetworkBytes--; return r }(), false},
		"not warm":        {func() core.BootReport { r := warm; r.Warm = false; return r }(), true},
		"unknown image":   {func() core.BootReport { r := warm; r.ImageID = "nope"; return r }(), true},
	}
	for name, b := range broken {
		if checkBoot(b.rep, b.warm) == nil {
			t.Errorf("%s: gate passed a broken boot report", name)
		}
	}
}

func TestCheckRegister(t *testing.T) {
	id := anyImage(t)
	good := core.RegisterReport{ImageID: id, Nodes: nodesN, CacheBytes: images[id].CacheSize()}
	if err := checkRegister(id, good, nil); err != nil {
		t.Fatalf("sound registration rejected: %v", err)
	}
	for name, c := range map[string]struct {
		rep core.RegisterReport
		err error
	}{
		"failed":     {good, errors.New("boom")},
		"node short": {func() core.RegisterReport { r := good; r.Nodes--; return r }(), nil},
		"lagging":    {func() core.RegisterReport { r := good; r.Lagging = []string{"n3"}; return r }(), nil},
		"cache size": {func() core.RegisterReport { r := good; r.CacheBytes++; return r }(), nil},
	} {
		if checkRegister(id, c.rep, c.err) == nil {
			t.Errorf("%s: gate passed a broken registration", name)
		}
	}
}

// TestBrokenRunFails checks that one violation or failed op makes the
// run incorrect and its exit code non-zero.
func TestBrokenRunFails(t *testing.T) {
	for name, res := range map[string]*result{
		"violation": func() *result { r := newResult(); r.op(nil); r.violate("flipped byte"); return r }(),
		"failed op": func() *result { r := newResult(); r.op(errors.New("boot failed")); return r }(),
	} {
		for _, e := range e2eNames {
			res.e2e[e.name] = metric{name: e.name, unit: e.unit}
		}
		if code := printResult(config{}, res); code == 0 {
			t.Errorf("%s: run exits 0", name)
		}
	}
}

// TestTracedRunGatesBothPasses checks that a traced run fails when only
// its untraced pass broke the gate.
func TestTracedRunGatesBothPasses(t *testing.T) {
	base, traced := newResult(), newResult()
	base.op(errors.New("verify boot: flipped byte"))
	traced.op(nil)
	traceOverhead(traced, base)
	if code := printResult(config{trace: true}, traced); code == 0 {
		t.Error("traced run exits 0 after its untraced pass failed an op")
	}
}
