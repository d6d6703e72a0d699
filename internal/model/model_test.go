package model

import (
	"testing"

	"gostats/internal/schema"
)

func snap() Snapshot {
	return Snapshot{
		Time:   100,
		Host:   "c401-101",
		JobIDs: []string{"123", "456"},
		Records: []Record{
			{Class: schema.ClassCPU, Instance: "1", Values: []uint64{1, 2}},
			{Class: schema.ClassCPU, Instance: "0", Values: []uint64{3, 4}},
			{Class: schema.ClassIB, Instance: "mlx4_0/1", Values: []uint64{9}},
		},
	}
}

func TestSnapshotClone(t *testing.T) {
	s := snap()
	c := s.Clone()
	c.Records[0].Values[0] = 999
	c.JobIDs[0] = "zzz"
	if s.Records[0].Values[0] == 999 {
		t.Error("clone shares value storage")
	}
	if s.JobIDs[0] == "zzz" {
		t.Error("clone shares job id storage")
	}
}

func TestRecordClone(t *testing.T) {
	r := Record{Class: schema.ClassCPU, Instance: "0", Values: []uint64{1}}
	c := r.Clone()
	c.Values[0] = 7
	if r.Values[0] == 7 {
		t.Error("record clone shares storage")
	}
}

func TestRecordsOfSortsByInstance(t *testing.T) {
	s := snap()
	rs := s.RecordsOf(schema.ClassCPU)
	if len(rs) != 2 {
		t.Fatalf("got %d records", len(rs))
	}
	if rs[0].Instance != "0" || rs[1].Instance != "1" {
		t.Errorf("not sorted: %s, %s", rs[0].Instance, rs[1].Instance)
	}
	if got := s.RecordsOf(schema.ClassMIC); got != nil {
		t.Errorf("missing class returned %v", got)
	}
}

func TestHasJob(t *testing.T) {
	s := snap()
	if !s.HasJob("123") || !s.HasJob("456") || s.HasJob("789") {
		t.Error("HasJob wrong")
	}
}
