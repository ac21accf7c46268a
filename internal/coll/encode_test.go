package coll

import (
	"math"
	"testing"
	"testing/quick"
)

// TestDecodeEncodeF64 pins the wire form of a float64 vector as lossless,
// NaN payloads and signed zeros included.
func TestDecodeEncodeF64(t *testing.T) {
	f := func(v []float64) bool {
		out := decode(encode(v))
		if len(out) != len(v) {
			return false
		}
		for i := range v {
			if math.Float64bits(out[i]) != math.Float64bits(v[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
