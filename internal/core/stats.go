package core

import (
	"encoding/json"
	"fmt"
	"time"
)

// String renders the stats as a single human-readable line, the canonical
// form the CLIs print instead of formatting fields ad hoc.
func (s Stats) String() string {
	capped := ""
	if s.TableHintCapped {
		capped = " (capped)"
	}
	spilled := ""
	if s.SpilledKeys > 0 {
		spilled = fmt.Sprintf(" spilled=%d", s.SpilledKeys)
	}
	batched := ""
	if s.WriteBatch > 0 {
		batched = fmt.Sprintf(" wb=%d flushes=%d dupes=%d", s.WriteBatch, s.BatchFlushes, s.ForeignDupes)
	}
	split := ""
	if s.SplitKeys > 0 || s.SplitMerges > 0 {
		split = fmt.Sprintf(" split=%d merged=%d", s.SplitKeys, s.SplitMerges)
	}
	return fmt.Sprintf(
		"P=%d local=%d foreign=%d pops=%d distinct=%d stage1=%v stage2=%v barrier=%v hint=%d%s%s%s%s",
		s.P, s.LocalKeys, s.ForeignKeys, s.Stage2Pops, s.DistinctKeys,
		s.Stage1Time.Round(time.Microsecond), s.Stage2Time.Round(time.Microsecond),
		s.BarrierWait.Round(time.Microsecond), s.TableHint, capped, spilled, batched, split)
}

// statsJSON is the wire form of Stats: snake_case keys, durations as
// float seconds (the same unit the obs metrics use).
type statsJSON struct {
	P                  int      `json:"p"`
	LocalKeys          uint64   `json:"local_keys"`
	ForeignKeys        uint64   `json:"foreign_keys"`
	Stage2Pops         uint64   `json:"stage2_pops"`
	DistinctKeys       int      `json:"distinct_keys"`
	WriteBatch         int      `json:"write_batch"`
	BatchFlushes       uint64   `json:"batch_flushes,omitempty"`
	ForeignDupes       uint64   `json:"foreign_dupes_combined,omitempty"`
	SplitKeys          uint64   `json:"split_keys,omitempty"`
	SplitMerges        uint64   `json:"split_merges,omitempty"`
	SpilledKeys        uint64   `json:"spilled_keys,omitempty"`
	Stage1Seconds      float64  `json:"stage1_seconds"`
	Stage2Seconds      float64  `json:"stage2_seconds"`
	BarrierWaitSeconds float64  `json:"barrier_wait_seconds"`
	TableHint          int      `json:"table_hint"`
	TableHintCapped    bool     `json:"table_hint_capped"`
	DestQueueWords     []uint64 `json:"dest_queue_words,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (s Stats) MarshalJSON() ([]byte, error) {
	return json.Marshal(statsJSON{
		P:                  s.P,
		LocalKeys:          s.LocalKeys,
		ForeignKeys:        s.ForeignKeys,
		Stage2Pops:         s.Stage2Pops,
		DistinctKeys:       s.DistinctKeys,
		WriteBatch:         s.WriteBatch,
		BatchFlushes:       s.BatchFlushes,
		ForeignDupes:       s.ForeignDupes,
		SplitKeys:          s.SplitKeys,
		SplitMerges:        s.SplitMerges,
		SpilledKeys:        s.SpilledKeys,
		Stage1Seconds:      s.Stage1Time.Seconds(),
		Stage2Seconds:      s.Stage2Time.Seconds(),
		BarrierWaitSeconds: s.BarrierWait.Seconds(),
		TableHint:          s.TableHint,
		TableHintCapped:    s.TableHintCapped,
		DestQueueWords:     s.DestQueueWords,
	})
}

// UnmarshalJSON implements json.Unmarshaler, inverting MarshalJSON so
// tooling can round-trip recorded stats.
func (s *Stats) UnmarshalJSON(data []byte) error {
	var j statsJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*s = Stats{
		P:               j.P,
		LocalKeys:       j.LocalKeys,
		ForeignKeys:     j.ForeignKeys,
		Stage2Pops:      j.Stage2Pops,
		DistinctKeys:    j.DistinctKeys,
		WriteBatch:      j.WriteBatch,
		BatchFlushes:    j.BatchFlushes,
		ForeignDupes:    j.ForeignDupes,
		SplitKeys:       j.SplitKeys,
		SplitMerges:     j.SplitMerges,
		SpilledKeys:     j.SpilledKeys,
		Stage1Time:      time.Duration(j.Stage1Seconds * float64(time.Second)),
		Stage2Time:      time.Duration(j.Stage2Seconds * float64(time.Second)),
		BarrierWait:     time.Duration(j.BarrierWaitSeconds * float64(time.Second)),
		TableHint:       j.TableHint,
		TableHintCapped: j.TableHintCapped,
		DestQueueWords:  j.DestQueueWords,
	}
	return nil
}
