package crossbar

import "testing"

func BenchmarkXBarConnectReset(b *testing.B) {
	x := NewXBar(5, 5)
	for i := 0; i < b.N; i++ {
		x.Reset()
		_ = x.TryConnect(0, 1)
		_ = x.TryConnect(1, 2)
		_ = x.TryConnect(2, 0)
		_ = x.TryConnect(3, 4)
	}
}

func BenchmarkUnifiedDualConnect(b *testing.B) {
	u := NewUnified(5)
	for i := 0; i < b.N; i++ {
		u.Reset()
		_ = u.TryConnect(0, EntryLow, 1)
		_ = u.TryConnect(0, EntryHigh, 3)
		_ = u.TryConnect(2, EntryLow, 0)
	}
}
