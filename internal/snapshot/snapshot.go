// Package snapshot is the versioned binary serialization layer under the
// engine checkpoints: a little-endian, CRC-trailed stream of fixed-width
// scalars and length-prefixed byte strings, with four-byte section tags so a
// truncated or mismatched stream fails loudly at the section boundary instead
// of silently misaligning.
//
// The format is deliberately primitive — no reflection, no varints, no
// self-describing schema — and it is declared once. A Stream runs in one
// direction, and every type that persists state has one
// State(s *Stream, …) error function that moves each field through a pointer:
// written from it when saving, read into it when loading. A field is listed
// once, so save and load cannot drift apart; a codec branches on Loading only
// where the format is genuinely asymmetric (derived state rebuilt after a
// load, container refills, sparse encodings, decode-and-discard). Fields move
// in declaration order, so the byte stream is a deterministic function of the
// simulation state (Snapshot→Restore→Snapshot is byte-stable) and the CI
// determinism gate can compare snapshots with cmp.
//
// Robustness contract: loading never panics on corrupt input. NewReader
// verifies the magic, version and whole-stream CRC up front; every move
// bounds-checks the remaining bytes (a load past the end yields zero);
// counts pass through Len, which validates them against caller-supplied caps
// before anything allocates, and yields 0 once any error holds. Errors are
// sticky — the first one latches — and codecs return them; callers discard
// the half-built object, so nothing half-restores.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"
)

// Magic is the four-byte stream magic.
const Magic = "DXSN"

// Version is the current format version. Bump on any incompatible layout
// change; loading rejects other versions (the committed golden checkpoint in
// bench/ and the root TestSnapshotFormatPinned digests turn an accidental bump
// or layout drift into a CI failure). Version 2 stores the injector's RNG
// state where version 1 stored a draw count to replay, and drops the buffered
// designs' retired allocator slots. Version 3 carries the five energy counts
// as three more STAT scalars (two were already there), with no energy section
// of their own and no energy base in a checkpoint's CKPT header.
const Version = 3

// headerLen is magic + version; trailerLen the CRC32.
const (
	headerLen  = 4 + 2
	trailerLen = 4
)

// Stream is one snapshot stream, saving (NewWriter) or loading (NewReader).
type Stream struct {
	// data is a loading stream's payload (header included, trailer
	// stripped), read from off on; or everything a saving stream has moved,
	// in a buffer borrowed from buffers and written to w at Close.
	data   []byte
	off    int
	w      io.Writer
	borrow *[]byte

	loading bool
	err     error
}

// buffers recycles saving streams' buffers, so a snapshot allocates its
// Stream and nothing else.
var buffers = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// NewWriter starts a saving stream on w, moving the magic and version. Close
// appends the CRC trailer and writes the whole stream to w in one call.
func NewWriter(w io.Writer) *Stream {
	b := buffers.Get().(*[]byte)
	s := &Stream{w: w, data: (*b)[:0], borrow: b}
	s.Tag(Magic)
	v := uint16(Version)
	s.U16(&v)
	return s
}

// NewReader verifies data as a complete snapshot stream (length, CRC, magic,
// version) and returns a loading stream positioned after the header, so a
// load can only fail on structure — counts out of range, tag mismatches,
// trailing bytes — never on flipped bits. It never panics on arbitrary input.
func NewReader(data []byte) (*Stream, error) {
	if len(data) < headerLen+trailerLen {
		return nil, fmt.Errorf("snapshot: stream truncated (%d bytes)", len(data))
	}
	body := data[:len(data)-trailerLen]
	want := binary.LittleEndian.Uint32(data[len(data)-trailerLen:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("snapshot: CRC mismatch (got %08x, want %08x)", got, want)
	}
	if string(data[:4]) != Magic {
		return nil, fmt.Errorf("snapshot: bad magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != Version {
		return nil, fmt.Errorf("snapshot: unsupported format version %d (have %d)", v, Version)
	}
	return &Stream{data: body, off: headerLen, loading: true}, nil
}

// Loading reports the direction: true while restoring.
func (s *Stream) Loading() bool { return s.loading }

// eof latches io.ErrUnexpectedEOF unless an earlier error holds.
func (s *Stream) eof() {
	if s.err == nil {
		s.err = io.ErrUnexpectedEOF
	}
}

// U8 moves one byte.
func (s *Stream) U8(p *uint8) {
	switch {
	case !s.loading:
		s.data = append(s.data, *p)
	case s.off < len(s.data):
		*p = s.data[s.off]
		s.off++
	default:
		*p = 0
		s.eof()
	}
}

// U16 moves a little-endian uint16.
func (s *Stream) U16(p *uint16) {
	switch {
	case !s.loading:
		s.data = binary.LittleEndian.AppendUint16(s.data, *p)
	case s.off+2 <= len(s.data):
		*p = binary.LittleEndian.Uint16(s.data[s.off:])
		s.off += 2
	default:
		*p = 0
		s.eof()
	}
}

// U32 moves a little-endian uint32.
func (s *Stream) U32(p *uint32) {
	switch {
	case !s.loading:
		s.data = binary.LittleEndian.AppendUint32(s.data, *p)
	case s.off+4 <= len(s.data):
		*p = binary.LittleEndian.Uint32(s.data[s.off:])
		s.off += 4
	default:
		*p = 0
		s.eof()
	}
}

// U64 moves a little-endian uint64.
func (s *Stream) U64(p *uint64) {
	switch {
	case !s.loading:
		s.data = binary.LittleEndian.AppendUint64(s.data, *p)
	case s.off+8 <= len(s.data):
		*p = binary.LittleEndian.Uint64(s.data[s.off:])
		s.off += 8
	default:
		*p = 0
		s.eof()
	}
}

// F64 moves an IEEE-754 float64 bit pattern.
func (s *Stream) F64(p *float64) {
	v := math.Float64bits(*p)
	s.U64(&v)
	*p = math.Float64frombits(v)
}

// Bool moves a byte 0/1; loading any other byte fails.
func (s *Stream) Bool(p *bool) {
	var v uint8
	if *p {
		v = 1
	}
	s.U8(&v)
	if v > 1 {
		s.Failf("snapshot: invalid boolean byte at offset %d", s.off-1)
	}
	*p = v == 1
}

// Int moves a signed integer of any width as a two's-complement int64;
// loading truncates to the field's width, as a conversion does.
func Int[T ~int | ~int8 | ~int16 | ~int32 | ~int64](s *Stream, p *T) {
	v := uint64(int64(*p))
	s.U64(&v)
	*p = T(int64(v))
}

// Byte moves a one-byte enum or port as a U8.
func Byte[T ~uint8 | ~int8](s *Stream, p *T) {
	v := uint8(*p)
	s.U8(&v)
	*p = T(v)
}

// Len moves a count. Saving writes n as a U32. Loading reads one and fails
// unless it is at most max and at most the bytes left in the stream — every
// element costs at least a byte, so a count can never make a decoder allocate
// or loop beyond the stream it came from. It returns the count (0 after an
// error), so one loop serves both directions.
func (s *Stream) Len(n, max int) int {
	v := uint32(n)
	s.U32(&v)
	switch {
	case s.err != nil:
		return 0
	case !s.loading:
		return n
	case int64(v) > int64(max):
		s.Failf("snapshot: count %d exceeds limit %d at offset %d", v, max, s.off-4)
		return 0
	case int(v) > len(s.data)-s.off:
		s.eof()
		return 0
	}
	return int(v)
}

// Bytes moves a length-prefixed byte string. A loaded slice aliases the
// stream's buffer; copy it if it must outlive the snapshot bytes.
func (s *Stream) Bytes(p *[]byte) {
	n := s.Len(len(*p), len(s.data))
	if s.loading {
		*p = s.data[s.off : s.off+n]
		s.off += n
	} else {
		s.data = append(s.data, *p...)
	}
}

// Tag moves a four-byte section tag; loading fails unless it matches. Tags
// cost four bytes per section and buy misalignment detection: a decoder that
// drifted off-layout hits a tag mismatch at the next section boundary instead
// of reading garbage to EOF.
func (s *Stream) Tag(tag string) {
	if len(tag) != 4 {
		panic("snapshot: section tag must be 4 bytes")
	}
	switch {
	case !s.loading:
		s.data = append(s.data, tag...)
	case s.off+4 > len(s.data):
		s.eof()
	case s.err == nil && string(s.data[s.off:s.off+4]) != tag:
		s.Failf("snapshot: section tag mismatch at offset %d: got %q, want %q", s.off, s.data[s.off:s.off+4], tag)
	default:
		s.off += 4
	}
}

// Failf latches a validation error unless an earlier error holds, and returns
// the latched one: a codec's check reads `if bad { return s.Failf(…) }`. Call
// it on the failing branch only — its arguments are boxed at the call, so a
// check that passes allocates nothing.
func (s *Stream) Failf(format string, args ...any) error {
	if s.err == nil {
		s.err = fmt.Errorf(format, args...)
	}
	return s.err
}

// Err returns the sticky error, if any.
func (s *Stream) Err() error { return s.err }

// Close ends the stream and returns the sticky error. Saving appends the CRC
// trailer and writes the stream out; loading fails unless every byte was
// consumed. The stream must not be used afterwards.
func (s *Stream) Close() error {
	if s.loading {
		if s.err == nil && s.off != len(s.data) {
			s.Failf("snapshot: %d trailing bytes after final section", len(s.data)-s.off)
		}
	} else {
		if s.err == nil {
			s.data = binary.LittleEndian.AppendUint32(s.data, crc32.ChecksumIEEE(s.data))
			_, s.err = s.w.Write(s.data)
		}
		*s.borrow = s.data[:0]
		buffers.Put(s.borrow)
		s.data, s.borrow = nil, nil
	}
	return s.err
}
