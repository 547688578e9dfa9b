package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"strings"
	"testing"
)

// write builds a two-section snapshot used by most tests.
func write(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Section("alpha", func(e *Encoder) {
		e.U8(7)
		e.Bool(true)
		e.U16(0xbeef)
		e.U32(0xdeadbeef)
		e.U64(1 << 62)
		e.I64(-42)
		e.Int(12345)
		e.F64(math.Pi)
		e.Bytes([]byte{1, 2, 3})
		e.Str("hello")
		e.U64s([]uint64{9, 8, 7})
		e.F64s([]float64{0.5, -0.25})
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Section("beta", func(e *Encoder) {
		if err := e.JSON(map[string]int{"x": 1}); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRoundTrip: every primitive written by Encoder comes back exactly
// through the matching Decoder call, and section order is preserved.
func TestRoundTrip(t *testing.T) {
	r, err := Open(bytes.NewReader(write(t)))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Sections(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("sections = %v, want [alpha beta]", got)
	}
	d, err := r.Section("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if v := d.U8(); v != 7 {
		t.Errorf("U8 = %d", v)
	}
	if !d.Bool() {
		t.Error("Bool = false")
	}
	if v := d.U16(); v != 0xbeef {
		t.Errorf("U16 = %#x", v)
	}
	if v := d.U32(); v != 0xdeadbeef {
		t.Errorf("U32 = %#x", v)
	}
	if v := d.U64(); v != 1<<62 {
		t.Errorf("U64 = %d", v)
	}
	if v := d.I64(); v != -42 {
		t.Errorf("I64 = %d", v)
	}
	if v := d.Int(); v != 12345 {
		t.Errorf("Int = %d", v)
	}
	if v := d.F64(); v != math.Pi {
		t.Errorf("F64 = %v", v)
	}
	if v := d.Bytes(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", v)
	}
	if v := d.Str(); v != "hello" {
		t.Errorf("Str = %q", v)
	}
	if v := d.U64s(); len(v) != 3 || v[0] != 9 || v[2] != 7 {
		t.Errorf("U64s = %v", v)
	}
	if v := d.F64s(); len(v) != 2 || v[0] != 0.5 || v[1] != -0.25 {
		t.Errorf("F64s = %v", v)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("decode error: %v", err)
	}
	var m map[string]int
	db, err := r.Section("beta")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.JSON(&m); err != nil || m["x"] != 1 {
		t.Errorf("JSON = %v, %v", m, err)
	}
	if !r.Has("alpha") || r.Has("gamma") {
		t.Error("Has misreports sections")
	}
	if _, err := r.Section("gamma"); err == nil {
		t.Error("missing section did not error")
	}
}

// TestDeterministicBytes: writing the same sections twice produces
// byte-identical files — the property snapshot-parity rests on.
func TestDeterministicBytes(t *testing.T) {
	if !bytes.Equal(write(t), write(t)) {
		t.Fatal("same sections serialized to different bytes")
	}
}

// TestOpenRejectsCorruption flips, truncates, and mangles the file at
// every structural layer; Open must reject each one outright rather
// than returning a half-usable Reader.
func TestOpenRejectsCorruption(t *testing.T) {
	good := write(t)
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantSub string
	}{
		{"bit flip in body", func(b []byte) []byte {
			// Section header is nameLen(2) + "alpha"(5) + bodyLen(4);
			// +15 lands inside the body, past the structural fields.
			b[len(magic)+4+15] ^= 0x01
			return b
		}, "checksum mismatch"},
		{"bit flip in trailer crc", func(b []byte) []byte {
			b[len(b)-1] ^= 0x80
			return b
		}, "checksum mismatch"},
		{"truncated mid-section", func(b []byte) []byte {
			return b[:len(b)-20]
		}, ""},
		{"missing trailer", func(b []byte) []byte {
			return b[:len(b)-10]
		}, "missing trailer"},
		{"trailing garbage", func(b []byte) []byte {
			return append(b, 0xff)
		}, "trailing bytes"},
		{"bad magic", func(b []byte) []byte {
			b[0] = 'X'
			return b
		}, "bad magic"},
		{"future version", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[len(magic):], Version+1)
			return b
		}, "unsupported format version"},
		{"too short", func(b []byte) []byte {
			return b[:5]
		}, "too short"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), good...))
			_, err := Open(bytes.NewReader(b))
			if err == nil {
				t.Fatal("corrupted snapshot opened cleanly")
			}
			if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestOpenRejectsV1Fixture: a committed version-1 era snapshot must be
// refused with a typed VersionError — never a panic or a misleading
// corruption message — so users with stale checkpoints get told to
// re-create them.
func TestOpenRejectsV1Fixture(t *testing.T) {
	raw, err := os.ReadFile("testdata/v1-empty.snap")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Open(bytes.NewReader(raw))
	if err == nil {
		t.Fatal("v1 snapshot opened cleanly under a v2 reader")
	}
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("error %q is not a *VersionError", err)
	}
	if ve.Got != 1 || ve.Want != Version {
		t.Fatalf("VersionError{Got:%d, Want:%d}, expected Got=1 Want=%d", ve.Got, ve.Want, Version)
	}
	for _, sub := range []string{"version 1", "re-create"} {
		if !strings.Contains(err.Error(), sub) {
			t.Fatalf("error %q does not mention %q", err, sub)
		}
	}
}

// TestDecoderStickyError: after the first failed read every subsequent
// read returns zero values and Err keeps reporting the original error.
func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	_ = d.U64() // wants 8 bytes, only 2 available
	first := d.Err()
	if first == nil {
		t.Fatal("short read did not error")
	}
	if v := d.U32(); v != 0 {
		t.Errorf("read after error = %d, want 0", v)
	}
	if d.Err() != first {
		t.Error("sticky error was replaced")
	}
}

// TestDecoderImplausibleLength: a corrupted length prefix larger than
// the remaining body fails cleanly instead of allocating gigabytes.
func TestDecoderImplausibleLength(t *testing.T) {
	var e Encoder
	e.U32(1 << 28) // claims 256Mi elements with no bytes behind it
	d := NewDecoder(e.buf)
	if v := d.U64s(); v != nil {
		t.Errorf("implausible slice decoded: len %d", len(v))
	}
	if d.Err() == nil {
		t.Fatal("implausible length did not error")
	}
}

// TestWriterMisuse: empty section names and sections after Close are
// refused; Close is idempotent.
func TestWriterMisuse(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Section("", func(*Encoder) {}); err == nil {
		t.Error("empty section name accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Errorf("second Close errored: %v", err)
	}
	if err := w.Section("late", func(*Encoder) {}); err == nil {
		t.Error("Section after Close accepted")
	}
}
