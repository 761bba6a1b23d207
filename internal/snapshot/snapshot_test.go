package snapshot

import (
	"bytes"
	"io"
	"reflect"
	"testing"
)

// sample holds one of every field type a Stream moves.
type sample struct {
	U8      uint8
	U16     uint16
	U32     uint32
	U64     uint64
	I64     int64
	Int     int
	Port    int8
	F64     float64
	Yes, No bool
	Str     []byte
	Counted []uint64
}

// State is sample's codec, written the way every codec in the module is: one
// function, each field once, a count through Len.
func (x *sample) State(s *Stream) error {
	s.Tag("SMPL")
	s.U8(&x.U8)
	s.U16(&x.U16)
	s.U32(&x.U32)
	s.U64(&x.U64)
	Int(s, &x.I64)
	Int(s, &x.Int)
	Byte(s, &x.Port)
	s.F64(&x.F64)
	s.Bool(&x.Yes)
	s.Bool(&x.No)
	s.Bytes(&x.Str)
	n := s.Len(len(x.Counted), 16)
	if s.Loading() {
		x.Counted = make([]uint64, n)
	}
	for i := range x.Counted {
		s.U64(&x.Counted[i])
	}
	s.Tag("DONE")
	return s.Err()
}

func full() *sample {
	return &sample{U8: 0xAB, U16: 0xBEEF, U32: 0xDEADBEEF, U64: 0x0102030405060708, I64: -42, Int: -7,
		Port: -1, F64: 3.14159, Yes: true, Str: []byte("hello"), Counted: []uint64{3, 1, 4}}
}

// writeSample saves full() and returns the stream bytes.
func writeSample(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := full().State(w); err != nil {
		t.Fatalf("State: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	data := writeSample(t)
	r, err := NewReader(data)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	var got sample
	if err := got.State(r); err != nil {
		t.Fatalf("State: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if want := full(); !reflect.DeepEqual(&got, want) {
		t.Errorf("round trip gave %+v, want %+v", got, *want)
	}
}

// Flipping any single bit anywhere in the stream must fail the up-front CRC.
func TestBitFlipDetected(t *testing.T) {
	data := writeSample(t)
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		if _, err := NewReader(mut); err == nil {
			t.Fatalf("bit flip at byte %d not detected", i)
		}
	}
}

// Every truncation of the stream must be rejected, never panic.
func TestTruncationDetected(t *testing.T) {
	data := writeSample(t)
	for n := 0; n < len(data); n++ {
		if _, err := NewReader(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes not detected", n)
		}
	}
}

func TestTagMismatch(t *testing.T) {
	data := writeSample(t)
	r, err := NewReader(data)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	r.Tag("NOPE")
	if r.Err() == nil {
		t.Fatal("tag mismatch not detected")
	}
}

func TestLenLimits(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Len(1<<30, 0) // a count far beyond the stream
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n := r.Len(0, 16); n != 0 || r.Err() == nil {
		t.Fatalf("Len accepted oversized count: n=%d err=%v", n, r.Err())
	}
}

// Loads past the payload yield zero values with a sticky error, no panic.
func TestReadPastEnd(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	one := uint8(1)
	w.U8(&one)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	r.U8(&one)
	v := uint64(99)
	if r.U64(&v); v != 0 {
		t.Fatalf("read past end returned %d", v)
	}
	if r.Err() != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", r.Err())
	}
	// The first error holds: a later validation failure reports it.
	if err := r.Failf("later"); err != io.ErrUnexpectedEOF {
		t.Fatalf("Failf replaced the latched error: %v", err)
	}
}

// An unconsumed suffix is a structural error at Close.
func TestTrailingBytes(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	seven := uint64(7)
	w.U64(&seven)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err == nil {
		t.Fatal("trailing bytes not detected")
	}
}

// Loading allocates only what the codec asks for: a passing check costs
// nothing, because Failf boxes its arguments on the failing branch alone.
func TestLoadAllocFree(t *testing.T) {
	data := writeSample(t)
	allocs := testing.AllocsPerRun(20, func() {
		r, _ := NewReader(data)
		var x sample
		if x.State(r) != nil || x.U8 != 0xAB && r.Failf("bad byte %d", x.U8) != nil {
			t.Fatal("load failed")
		}
	})
	if allocs > 2 { // the stream and sample's Counted slice
		t.Errorf("%.1f allocations per load, want 2", allocs)
	}
}
