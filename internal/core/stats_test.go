package core

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestStatsStringAndJSON(t *testing.T) {
	st := Stats{
		P: 4, LocalKeys: 100, ForeignKeys: 300, Stage2Pops: 300,
		DistinctKeys: 57, WriteBatch: 64, BatchFlushes: 12, ForeignDupes: 40,
		SplitKeys: 25, SplitMerges: 25,
		Stage1Time: 1500 * time.Microsecond,
		Stage2Time: 200 * time.Microsecond, BarrierWait: 50 * time.Microsecond,
		TableHint: 1 << 24, TableHintCapped: true,
		DestQueueWords: []uint64{10, 20, 30, 40},
	}
	s := st.String()
	for _, want := range []string{"P=4", "local=100", "foreign=300", "pops=300", "distinct=57", "(capped)", "wb=64", "flushes=12", "dupes=40", "split=25", "merged=25"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}

	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"p":4`, `"foreign_keys":300`, `"stage1_seconds":0.0015`, `"table_hint_capped":true`, `"write_batch":64`, `"batch_flushes":12`, `"foreign_dupes_combined":40`, `"split_keys":25`, `"split_merges":25`, `"dest_queue_words":[10,20,30,40]`} {
		if !strings.Contains(string(blob), want) {
			t.Errorf("JSON missing %q: %s", want, blob)
		}
	}

	var back Stats
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, st) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", back, st)
	}
}

func TestStatsStringUncapped(t *testing.T) {
	if strings.Contains(Stats{}.String(), "capped") {
		t.Error("zero Stats claims a capped hint")
	}
}

func TestBuildRecordsAppliedTableHint(t *testing.T) {
	d := uniformData(t, 5000, 8, 2, 21)
	_, st, err := Build(d, Options{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.TableHint <= 0 {
		t.Errorf("applied TableHint not recorded: %+v", st)
	}
	if st.TableHintCapped {
		t.Errorf("small build reports a capped hint: %+v", st)
	}

	// An explicit hint beyond the cap must be truncated and reported.
	_, st, err = Build(d, Options{P: 2, TableHint: maxTableHint * 4})
	if err != nil {
		t.Fatal(err)
	}
	if !st.TableHintCapped || st.TableHint != maxTableHint {
		t.Errorf("oversized hint not capped+reported: hint=%d capped=%v", st.TableHint, st.TableHintCapped)
	}
}

func TestWithDefaultsCapsHeuristicHint(t *testing.T) {
	// A huge m with P=1 drives the heuristic hint past the cap.
	o, capped := Options{P: 1}.withDefaults(1<<26, 1<<62)
	if !capped || o.TableHint != maxTableHint {
		t.Fatalf("heuristic hint not capped: hint=%d capped=%v", o.TableHint, capped)
	}
	o, capped = Options{P: 1}.withDefaults(1000, 1<<62)
	if capped || o.TableHint != 1000 {
		t.Fatalf("small heuristic hint wrong: hint=%d capped=%v", o.TableHint, capped)
	}
}
