package value

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// fuzzValue decodes a value from fuzz input: one kind byte, then that
// kind's payload (eight bytes for numbers, a length byte plus bytes
// for strings, a count byte plus elements for structured kinds, whose
// nesting is bounded by depth). Missing bytes read as zero, so every
// input decodes.
func fuzzValue(data []byte, depth int) (Value, []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	word := func() uint64 {
		var w [8]byte
		n := copy(w[:], data)
		data = data[n:]
		return binary.LittleEndian.Uint64(w[:])
	}
	k := Kind(next() % 12)
	if depth <= 0 && k >= KindTuple {
		k = KindInt
	}
	switch k {
	case KindNull:
		return Null, data
	case KindBool:
		return NewBool(next()&1 == 1), data
	case KindInt:
		return NewInt(int64(word())), data
	case KindFloat:
		return NewFloat(math.Float64frombits(word())), data
	case KindString:
		n := min(int(next()%32), len(data))
		s := string(data[:n])
		return NewString(s), data[n:]
	case KindDatetime:
		return NewDatetime(int64(word())), data
	case KindVertex:
		return NewVertex(int64(word())), data
	case KindEdge:
		return NewEdge(int64(word())), data
	case KindMap:
		pairs := make([]Pair, next()%4)
		for i := range pairs {
			pairs[i].Key, data = fuzzValue(data, depth-1)
			pairs[i].Val, data = fuzzValue(data, depth-1)
		}
		return NewMap(pairs), data
	default:
		elems := make([]Value, next()%4)
		for i := range elems {
			elems[i], data = fuzzValue(data, depth-1)
		}
		switch k {
		case KindTuple:
			return NewTuple(elems), data
		case KindList:
			return NewList(elems), data
		}
		return NewSet(elems), data
	}
}

// FuzzValueKey pins AppendKey as Key's one encoder: Key is exactly the
// appended bytes, appending never writes before the input length, and
// the key relation agrees with Equal (equal keys imply Equal, and two
// KeyExact values that are Equal share a key).
func FuzzValueKey(f *testing.F) {
	f.Add([]byte{byte(KindInt), 1}, []byte("prefix|"))
	f.Add([]byte{byte(KindFloat), 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, byte(KindInt), 1}, []byte{}) // 1.0 vs 1
	f.Add([]byte{byte(KindFloat), 1, 0, 0, 0, 0, 0, 0xf8, 0x7f}, []byte("x"))                // NaN
	f.Add([]byte{byte(KindString), 3, 'a', 'b', 'c'}, []byte("k|"))
	f.Add([]byte{byte(KindTuple), 2, byte(KindString), 1, 'x', byte(KindInt), 7}, []byte("(("))
	f.Add([]byte{byte(KindMap), 1, byte(KindInt), 2, byte(KindSet), 2, byte(KindInt), 1, byte(KindFloat)}, []byte(nil))
	f.Fuzz(func(t *testing.T, data, prefix []byte) {
		v, rest := fuzzValue(data, 3)
		key := v.Key()
		if got := string(v.AppendKey(nil)); got != key {
			t.Fatalf("AppendKey(nil) = %q, Key() = %q", got, key)
		}
		// Spare capacity makes append write into in's own backing
		// array, so a write before len(in) would show in in.
		in := make([]byte, len(prefix), len(prefix)+len(key))
		copy(in, prefix)
		out := v.AppendKey(in)
		if !bytes.Equal(in, prefix) || !bytes.Equal(out[:len(prefix)], prefix) {
			t.Fatalf("AppendKey wrote before its input length: in %q, out %q, prefix %q", in, out, prefix)
		}
		if string(out[len(prefix):]) != key {
			t.Fatalf("AppendKey after a prefix appended %q, Key() = %q", out[len(prefix):], key)
		}
		w, _ := fuzzValue(rest, 3)
		if key == w.Key() && !Equal(v, w) {
			t.Fatalf("%v and %v share key %q but are not Equal", v, w, key)
		}
		if v.KeyExact() && w.KeyExact() && Equal(v, w) && key != w.Key() {
			t.Fatalf("KeyExact %v and %v are Equal but have keys %q and %q", v, w, key, w.Key())
		}
	})
}

var keySink string

// TestKeyAllocs pins Key's allocations: one for the returned string
// (none for the one-byte null key, whose string the runtime interns)
// and one more only for a key that outgrows Key's 64-byte stack
// buffer. The strings.Builder encoder Key replaced made 1–4.
func TestKeyAllocs(t *testing.T) {
	cases := []struct {
		name string
		v    Value
		want float64
	}{
		{"null", Null, 0},
		{"bool", NewBool(true), 1},
		{"int", NewInt(7), 1},
		{"big int", NewInt(1 << 40), 1},
		{"float", NewFloat(1.5), 1},
		{"int-valued float", NewFloat(3), 1},
		{"string", NewString("Chrome"), 1},
		{"datetime", NewDatetime(1300000000), 1},
		{"vertex", NewVertex(12345), 1},
		{"tuple", NewTuple([]Value{NewString("City-1"), NewInt(2011), NewInt(5)}), 1},
		{"map", NewMap([]Pair{{Key: NewInt(1), Val: NewString("x")}}), 1},
		{"long string", NewString(string(make([]byte, 100))), 2},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(100, func() { keySink = c.v.Key() }); got != c.want {
			t.Errorf("%s: Key() allocates %v times, want %v", c.name, got, c.want)
		}
	}
}

// TestAppendKeyReusedBuffer checks the point of AppendKey: encoding
// into a warm buffer and probing a map with m[string(buf)] allocate
// nothing.
func TestAppendKeyReusedBuffer(t *testing.T) {
	v := NewTuple([]Value{NewString("City-1"), NewString("Firefox"), NewInt(2011), NewFloat(2.5)})
	m := map[string]int{v.Key(): 1}
	var buf []byte
	got := testing.AllocsPerRun(100, func() {
		buf = v.AppendKey(buf[:0])
		if m[string(buf)] != 1 {
			t.Fatal("lookup missed")
		}
	})
	if got != 0 {
		t.Errorf("AppendKey + lookup allocates %v times, want 0", got)
	}
}

// TestKeyExact pins the two places Key is finer than Equal, and that
// KeyExact reports them wherever they are nested.
func TestKeyExact(t *testing.T) {
	nan := NewFloat(math.NaN())
	if !Equal(nan, NewInt(1)) || nan.Key() == NewInt(1).Key() {
		t.Fatal("NaN must be Equal to 1 under Compare yet keyed apart")
	}
	big, rounded := NewInt(1<<53+1), NewFloat(1<<53)
	if !Equal(big, rounded) || big.Key() == rounded.Key() {
		t.Fatal("2^53+1 must be Equal to 2^53 as a float yet keyed apart")
	}
	for _, v := range []Value{
		nan, big, NewInt(-1<<53 - 1),
		NewTuple([]Value{NewString("a"), nan}),
		NewList([]Value{NewInt(1), big}),
		NewMap([]Pair{{Key: NewInt(1), Val: nan}}),
	} {
		if v.KeyExact() {
			t.Errorf("%v must not be KeyExact", v)
		}
	}
	for _, v := range []Value{
		Null, NewInt(1 << 53), NewInt(-1 << 53), NewFloat(1 << 60), NewFloat(math.Inf(1)),
		NewString("x"), NewDatetime(1 << 60),
		NewTuple([]Value{NewInt(1), NewFloat(1.5)}),
	} {
		if !v.KeyExact() {
			t.Errorf("%v must be KeyExact", v)
		}
	}
}
