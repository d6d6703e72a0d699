package xalt

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestPutGetLen(t *testing.T) {
	db := NewDB()
	if _, ok := db.Get("1"); ok {
		t.Error("empty db returned a record")
	}
	r := Capture("1", "wrf.exe", "u042", false, 7)
	if err := db.Put(r); err != nil {
		t.Fatal(err)
	}
	got, ok := db.Get("1")
	if !ok || got.Exe != "wrf.exe" {
		t.Errorf("got %+v ok=%v", got, ok)
	}
	if db.Len() != 1 {
		t.Errorf("len = %d", db.Len())
	}
	if err := db.Put(Record{}); err == nil {
		t.Error("record without job id accepted")
	}
}

func TestCaptureShape(t *testing.T) {
	r := Capture("9", "wrf.exe", "u001", true, 3)
	if r.VecISA != "avx" {
		t.Errorf("vectorized build ISA = %q", r.VecISA)
	}
	if !strings.Contains(r.ExePath, "u001") {
		t.Errorf("exe path = %q", r.ExePath)
	}
	// WRF links netcdf.
	foundNetcdf := false
	for _, l := range r.Libraries {
		if strings.Contains(l, "netcdf") {
			foundNetcdf = true
		}
	}
	if !foundNetcdf {
		t.Errorf("wrf record lacks netcdf: %v", r.Libraries)
	}
	if len(r.Modules) < 3 {
		t.Errorf("modules = %v", r.Modules)
	}
	scalar := Capture("10", "a.out", "u002", false, 3)
	if scalar.VecISA != "sse2" {
		t.Errorf("unvectorized build ISA = %q", scalar.VecISA)
	}
	// Determinism per seed.
	again := Capture("9", "wrf.exe", "u001", true, 3)
	if again.Compiler != r.Compiler {
		t.Error("capture not deterministic for a seed")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := NewDB()
	for i, id := range []string{"3", "1", "2"} {
		db.Put(Capture(id, "a.out", "u1", i%2 == 0, int64(i)))
	}
	path := filepath.Join(t.TempDir(), "xalt.jsonl")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Fatalf("len = %d", got.Len())
	}
	ids := got.JobIDs()
	if ids[0] != "1" || ids[2] != "3" {
		t.Errorf("ids = %v", ids)
	}
	r, _ := got.Get("3")
	if r.VecISA != "avx" {
		t.Errorf("record 3 = %+v", r)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file loaded")
	}
}
