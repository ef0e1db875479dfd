package netsim

import (
	"testing"
	"time"
)

func TestCommodityDefaults(t *testing.T) {
	m := Commodity()
	if m.BarrierLatency != 100*time.Microsecond {
		t.Errorf("barrier latency = %v", m.BarrierLatency)
	}
	if m.BytesPerSecond != 1_250_000_000 {
		t.Errorf("bandwidth = %d", m.BytesPerSecond)
	}
}

func TestExchangeCost(t *testing.T) {
	m := Commodity()
	if m.ExchangeCost(1<<20, 1) != 0 {
		t.Error("one worker never pays")
	}
	if got := m.ExchangeCost(0, 2); got != m.BarrierLatency {
		t.Errorf("empty exchange = %v, want barrier", got)
	}
	// 1.25 GB at 1.25 GB/s = 1 s plus barrier.
	got := m.ExchangeCost(1_250_000_000, 8)
	want := m.BarrierLatency + time.Second
	if got < want-time.Millisecond || got > want+time.Millisecond {
		t.Errorf("cost = %v, want ~%v", got, want)
	}
}

func TestZeroModel(t *testing.T) {
	z := Zero()
	if z.ExchangeCost(1<<30, 32) != 0 {
		t.Error("zero model must be free")
	}
}

func TestZeroBandwidthMeansLatencyOnly(t *testing.T) {
	m := Model{BarrierLatency: time.Millisecond}
	if got := m.ExchangeCost(1<<30, 4); got != time.Millisecond {
		t.Errorf("latency-only model charged %v", got)
	}
}
