package cluster

import (
	"sync"
	"testing"
	"time"
)

func TestTopologyBasics(t *testing.T) {
	top := NewTopology(4)
	if top.Len() != 4 {
		t.Fatalf("Len = %d", top.Len())
	}
	if top.Node(0).Addr != "10.0.0.1" || top.Node(3).Addr != "10.0.0.4" {
		t.Errorf("addresses: %s %s", top.Node(0).Addr, top.Node(3).Addr)
	}
	if top.ByAddr("10.0.0.2") != top.Node(1) {
		t.Error("ByAddr lookup failed")
	}
	if top.ByAddr("1.2.3.4") != nil {
		t.Error("unknown addr should return nil")
	}
	if top.Node(1).Name != "node1" {
		t.Errorf("name: %s", top.Node(1).Name)
	}
}

func TestTopologyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range node")
		}
	}()
	NewTopology(2).Node(5)
}

func TestCostModelAccounting(t *testing.T) {
	top := NewTopology(2)
	c := &CostModel{DiskReadBps: 1e6, DiskWriteBps: 1e6, NetBps: 1e6}
	c.ChargeDiskRead(top.Node(0), 100)
	c.ChargeDiskWrite(top.Node(0), 200)
	c.ChargeNet(top.Node(0), top.Node(1), 300)
	s := c.Stats()
	if s.DiskReadBytes != 100 || s.DiskWriteBytes != 200 || s.NetBytes != 300 {
		t.Errorf("stats = %+v", s)
	}
	if s.SimulatedTime <= 0 {
		t.Error("simulated time should accumulate")
	}
	c.ResetStats()
	if c.Stats() != (Stats{}) {
		t.Error("ResetStats should zero counters")
	}
}

func TestLocalNetworkIsFree(t *testing.T) {
	top := NewTopology(2)
	c := &CostModel{NetBps: 1.25e9, NetLatency: 200 * time.Microsecond}
	c.ChargeNet(top.Node(0), top.Node(0), 1<<20)
	if c.Stats().NetBytes != 0 {
		t.Error("node-local transfer must not be charged")
	}
	c.ChargeNet(top.Node(0), top.Node(1), 1<<20)
	if c.Stats().NetBytes != 1<<20 {
		t.Error("remote transfer must be charged")
	}
}

func TestNilCostModelIsNoop(t *testing.T) {
	var c *CostModel
	top := NewTopology(1)
	c.ChargeDiskRead(top.Node(0), 10) // must not panic
	c.ChargeDiskWrite(top.Node(0), 10)
	c.ChargeNet(top.Node(0), top.Node(0), 10)
	if c.Stats() != (Stats{}) {
		t.Error("nil cost model should report zero stats")
	}
	c.ResetStats()
}

func TestConcurrentStatsSafe(t *testing.T) {
	top := NewTopology(3)
	c := &CostModel{DiskReadBps: 1e15, NetBps: 1e15}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.ChargeDiskRead(top.Node(i%3), 1)
				c.ChargeNet(top.Node(i%3), top.Node((i+1)%3), 1)
				_ = c.Stats()
			}
		}(i)
	}
	wg.Wait()
	if c.Stats().DiskReadBytes != 800 {
		t.Errorf("disk read bytes = %d, want 800", c.Stats().DiskReadBytes)
	}
}
