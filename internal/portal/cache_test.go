package portal

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"gostats/internal/chip"
	"gostats/internal/core"
	"gostats/internal/reldb"
	"gostats/internal/telemetry"
)

// buildCachedPortal makes a portal over a synthetic table with its own
// telemetry registry so cache counters can be asserted.
func buildCachedPortal(t *testing.T, jobs int) (*Server, *reldb.DB, *telemetry.Registry, string) {
	t.Helper()
	db := reldb.New()
	for i := 0; i < jobs; i++ {
		db.Insert(&reldb.JobRow{
			JobID: fmt.Sprint(i), User: fmt.Sprintf("u%02d", i%7), Exe: "wrf.exe",
			Queue: "normal", Status: "COMPLETED", Nodes: 2, Wayness: 16,
			StartTime: float64(i * 100), EndTime: float64(i*100 + 600),
			Metrics: core.Summary{CPUUsage: 0.5, MetaDataRate: float64(i)},
		})
	}
	s := NewServer(db, chip.StampedeNode().Registry(), nil)
	s.Metrics = telemetry.NewRegistry()
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return s, db, s.Metrics, srv.URL
}

func counterValue(reg *telemetry.Registry, name, route string) uint64 {
	return reg.Counter(name, "", "route", route).Value()
}

func TestCacheHitOnRepeat(t *testing.T) {
	s, _, reg, url := buildCachedPortal(t, 20)
	q := url + "/jobs?field1=runtime&op1=gte&val1=100"
	c1, b1 := get(t, q)
	c2, b2 := get(t, q)
	if c1 != 200 || c2 != 200 {
		t.Fatalf("codes = %d/%d", c1, c2)
	}
	if b1 != b2 {
		t.Error("cached body differs from rendered body")
	}
	if hits := counterValue(reg, "gostats_portal_cache_hits_total", "/jobs"); hits != 1 {
		t.Errorf("hits = %d, want 1", hits)
	}
	if misses := counterValue(reg, "gostats_portal_cache_misses_total", "/jobs"); misses != 1 {
		t.Errorf("misses = %d, want 1", misses)
	}
	if s.Cache.Len() == 0 {
		t.Error("cache empty after miss+render")
	}
}

func TestCacheParamOrderCanonical(t *testing.T) {
	_, _, reg, url := buildCachedPortal(t, 10)
	get(t, url+"/jobs?exe=wrf.exe&user=u01")
	get(t, url+"/jobs?user=u01&exe=wrf.exe") // same query, reordered
	if hits := counterValue(reg, "gostats_portal_cache_hits_total", "/jobs"); hits != 1 {
		t.Errorf("hits = %d, want 1 (param order should not matter)", hits)
	}
}

func TestCacheInvalidatedByInsert(t *testing.T) {
	_, db, reg, url := buildCachedPortal(t, 10)
	q := url + "/jobs?status=COMPLETED"
	_, before := get(t, q)
	db.Insert(&reldb.JobRow{JobID: "new", User: "u99", Exe: "new.exe",
		Queue: "normal", Status: "COMPLETED", Nodes: 1, EndTime: 600})
	_, after := get(t, q)
	if before == after {
		t.Error("insert did not invalidate the cached page")
	}
	if misses := counterValue(reg, "gostats_portal_cache_misses_total", "/jobs"); misses != 2 {
		t.Errorf("misses = %d, want 2", misses)
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	_, _, _, url := buildCachedPortal(t, 5)
	bad := url + "/jobs?field1=runtime&op1=gte&val1=notanumber"
	c1, _ := get(t, bad)
	c2, _ := get(t, bad)
	if c1 != http.StatusBadRequest || c2 != http.StatusBadRequest {
		t.Fatalf("codes = %d/%d, want 400", c1, c2)
	}
}

func TestCacheDisabled(t *testing.T) {
	db := reldb.New()
	db.Insert(&reldb.JobRow{JobID: "1", User: "u", Exe: "x", Status: "COMPLETED", Nodes: 1, EndTime: 600})
	s := NewServer(db, chip.StampedeNode().Registry(), nil)
	s.Cache = nil
	s.Metrics = telemetry.NewRegistry()
	srv := httptest.NewServer(s)
	defer srv.Close()
	for i := 0; i < 2; i++ {
		if code, _ := get(t, srv.URL+"/jobs"); code != 200 {
			t.Fatalf("code = %d", code)
		}
	}
	if hits := counterValue(s.Metrics, "gostats_portal_cache_hits_total", "/jobs"); hits != 0 {
		t.Errorf("hits = %d with cache disabled", hits)
	}
}

func TestCacheEviction(t *testing.T) {
	c := NewCache(2)
	put := func(key string, gen uint64) {
		c.get(key, gen, func() (*cacheEntry, error) { return &cacheEntry{gen: gen, body: []byte("x")}, nil })
	}
	cached := func(key string, gen uint64) bool {
		_, hit, _ := c.get(key, gen, func() (*cacheEntry, error) { return nil, errUncacheable })
		return hit
	}
	for i := 0; i < 5; i++ {
		put(fmt.Sprintf("k%d", i), 1)
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
	if cached("k0", 1) {
		t.Error("oldest entry survived eviction")
	}
	if !cached("k4", 1) {
		t.Error("newest entry evicted")
	}
	// Stale generation drops the entry.
	if cached("k4", 2) {
		t.Error("stale entry served")
	}
	if cached("k4", 1) {
		t.Error("stale entry not dropped")
	}
}

// TestCacheOnePagePerKeyUnderMovingGeneration renders the same URLs
// while their generation moves on every request: each key must hold
// one page, the current one, rather than one per generation.
func TestCacheOnePagePerKeyUnderMovingGeneration(t *testing.T) {
	c := NewCache(512)
	for gen := uint64(1); gen <= 100; gen++ {
		for k := 0; k < 3; k++ {
			e, hit, err := c.get(fmt.Sprint("k", k), gen, func() (*cacheEntry, error) {
				return &cacheEntry{gen: gen}, nil
			})
			if err != nil || hit || e.gen != gen {
				t.Fatalf("gen %d key %d: entry gen %d hit=%v err=%v", gen, k, e.gen, hit, err)
			}
		}
	}
	if c.Len() != 3 {
		t.Fatalf("cache holds %d pages for 3 keys", c.Len())
	}
}

// TestConcurrentPortalReadersWriters hammers the cached routes from many
// clients while rows keep arriving — the -race gate for the read path.
func TestConcurrentPortalReadersWriters(t *testing.T) {
	_, db, _, url := buildCachedPortal(t, 50)
	paths := []string{
		"/jobs?status=COMPLETED",
		"/jobs?field1=metadatarate&op1=gte&val1=10",
		"/api/jobs?exe=wrf.exe",
		"/dates",
		"/energy",
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				db.Insert(&reldb.JobRow{
					JobID: fmt.Sprintf("w%d-%d", w, i), User: "uw", Exe: "wrf.exe",
					Queue: "normal", Status: "COMPLETED", Nodes: 1,
					EndTime: float64(i * 60),
					Metrics: core.Summary{MetaDataRate: float64(i)},
				})
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				resp, err := http.Get(url + paths[(r+i)%len(paths)])
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != 200 {
					t.Errorf("status %d for %s", resp.StatusCode, paths[(r+i)%len(paths)])
				}
				resp.Body.Close()
			}
		}(r)
	}
	wg.Wait()
}
