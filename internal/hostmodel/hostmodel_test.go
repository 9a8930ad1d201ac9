package hostmodel

import (
	"testing"
	"time"
)

func TestSwapOnsetMatchesPaper(t *testing.T) {
	c := NewCluster(1)
	if got := c.SwapOnset(Splay); got != 1263 {
		t.Errorf("SPLAY swap onset = %d instances, want 1263 (Fig. 8)", got)
	}
	jvmOnset := c.SwapOnset(JVM)
	if jvmOnset < 175 || jvmOnset > 185 {
		t.Errorf("JVM swap onset = %d nodes/host, want ≈180 (1,980 over 11 hosts)", jvmOnset)
	}
}

func TestMemoryAccounting(t *testing.T) {
	c := NewCluster(11)
	c.AssignInstances(1100, Splay)
	// 1100 instances over 11 hosts = 100 each.
	for i := 0; i < 11; i++ {
		if c.hosts[i].instances != 100 {
			t.Fatalf("host %d has %d instances", i, c.hosts[i].instances)
		}
		if c.Swapping(i) {
			t.Fatalf("host %d swapping at 100 SPLAY instances", i)
		}
	}
	c.AssignInstances(11*200, JVM)
	if !c.Swapping(0) {
		t.Fatal("host not swapping at 200 JVM nodes (onset ≈180)")
	}
}

func TestGCFactorMonotone(t *testing.T) {
	c := NewCluster(1)
	prev := 0.0
	for n := 10; n <= 220; n += 10 {
		c.AssignInstances(n, JVM)
		f := c.gcFactor(0)
		if f < prev {
			t.Fatalf("gc factor decreased at %d instances: %f < %f", n, f, prev)
		}
		prev = f
	}
	c.AssignInstances(100, JVM)
	light := c.gcFactor(0)
	c.AssignInstances(179, JVM)
	heavy := c.gcFactor(0)
	c.AssignInstances(200, JVM)
	swap := c.gcFactor(0)
	if light > 1.6 {
		t.Errorf("gc factor at 100 nodes = %f, want ≈1", light)
	}
	if heavy < 3 {
		t.Errorf("gc factor at 179 nodes = %f, want high pressure", heavy)
	}
	if swap < 50 {
		t.Errorf("gc factor while swapping = %f, want ≥ SwapPenalty", swap)
	}
}

func TestProcDelayQueues(t *testing.T) {
	c := NewCluster(1)
	c.AssignInstances(10, Splay)
	now := time.Unix(0, 0)
	d1 := c.ProcDelay(now, 0, 100)
	d2 := c.ProcDelay(now, 1, 100) // same instant: queues behind d1
	if d2 <= d1 {
		t.Fatalf("no CPU queueing: d1=%s d2=%s", d1, d2)
	}
	// After the queue drains, delay returns to the base service time.
	later := now.Add(time.Second)
	d3 := c.ProcDelay(later, 2, 100)
	if d3 != d1 {
		t.Fatalf("post-drain delay %s != base %s", d3, d1)
	}
}

func TestJVMDelaysExplodeNearSwap(t *testing.T) {
	light := NewCluster(11)
	light.AssignInstances(11*100, JVM)
	heavy := NewCluster(11)
	heavy.AssignInstances(11*179, JVM)
	swapping := NewCluster(11)
	swapping.AssignInstances(11*185, JVM)

	now := time.Unix(0, 0)
	dl := light.ProcDelay(now, 0, 1024)
	dh := heavy.ProcDelay(now, 0, 1024)
	ds := swapping.ProcDelay(now, 0, 1024)
	if !(dl < dh && dh < ds) {
		t.Fatalf("delay ordering broken: light=%s heavy=%s swap=%s", dl, dh, ds)
	}
	if ds < 10*dl {
		t.Fatalf("swap delay %s not dramatically above light %s", ds, dl)
	}
}

func TestSplayScalesFlat(t *testing.T) {
	// 500 SPLAY instances/host (the paper's 5,500 over 11 hosts) must not
	// inflate service times: that is Fig. 7(c)'s flatness.
	few := NewCluster(11)
	few.AssignInstances(11*10, Splay)
	many := NewCluster(11)
	many.AssignInstances(11*500, Splay)
	now := time.Unix(0, 0)
	df := few.ProcDelay(now, 0, 1024)
	dm := many.ProcDelay(now, 0, 1024)
	if dm > 2*df {
		t.Fatalf("SPLAY delay grew with instance count: %s vs %s", dm, df)
	}
}

func TestMemPerInstance(t *testing.T) {
	c := NewCluster(1)
	c.AssignInstances(1000, Splay)
	per := c.MemPerInstance(0)
	// Apparent footprint = instances' share plus amortized daemon.
	if per < 1<<20 || per > 2<<20 {
		t.Fatalf("per-instance memory = %d bytes, want ≈1.5–1.7 MB", per)
	}
}

func TestLoadWindow(t *testing.T) {
	c := NewCluster(1)
	c.AssignInstances(100, Splay)
	now := time.Unix(0, 0)
	for i := 0; i < 10000; i++ {
		now = now.Add(10 * time.Millisecond)
		c.ProcDelay(now, i%100, 512)
	}
	if c.Load(0) <= 0 {
		t.Fatal("load never computed")
	}
	if c.Load(0) > 3 {
		t.Fatalf("load = %f, want modest (<3, Fig. 8)", c.Load(0))
	}
}
