package serve

import (
	"encoding/json"
	"math"
	"testing"
)

// FuzzAppendJSONFloat feeds arbitrary float64 bit patterns to the
// hand-rolled float encoder and requires encoding/json's exact bytes. NaN
// and ±Inf are skipped: json.Marshal rejects them, and no response carries
// one.
func FuzzAppendJSONFloat(f *testing.F) {
	for _, c := range jsonFloatCases {
		f.Add(math.Float64bits(c))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Skip()
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, v); string(got) != string(want) {
			t.Fatalf("appendJSONFloat(%v) = %q, want %q (encoding/json, bits %#x)", v, got, want, bits)
		}
	})
}
