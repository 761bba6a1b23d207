package arbiter

import "testing"

func BenchmarkRoundRobinGrant(b *testing.B) {
	r := NewRoundRobin(5)
	for i := 0; i < b.N; i++ {
		r.Grant(0b10110)
	}
}

func BenchmarkSeparableAllocate(b *testing.B) {
	s := NewSeparable(5, 5)
	req := make([][]bool, 5)
	for i := range req {
		req[i] = make([]bool, 5)
	}
	req[0][1], req[1][1], req[2][3], req[3][0], req[4][4] = true, true, true, true, true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Allocate(req)
	}
}

func BenchmarkDualInputAllocate(b *testing.B) {
	d := NewDualInput(5, 5)
	reqs := make([]DualRequest, 5)
	for p := range reqs {
		reqs[p].Want[0] = 1 << uint(p%5)
		reqs[p].Age[0] = uint64(p)
		reqs[p].Want[1] = 1 << uint((p+2)%5)
		reqs[p].Age[1] = uint64(p + 10)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Allocate(reqs, false)
	}
}
