package portal

import (
	"bytes"
	"errors"
	"net/http"

	"gostats/internal/lru"
)

// Cache is the portal's generation-stamped response cache: one LRU of
// rendered pages keyed by route + canonical query string. Each page
// carries the generation of its backing data at render time, and a
// lookup at any other generation drops it and renders afresh. An Insert
// therefore invalidates without any walk, and a key never holds more
// than one page, however fast its generation moves. Concurrent misses
// of one key share a single render. Under steady browsing between ETL
// loads — the portal's dominant regime — repeated queries are served
// straight from memory.
type Cache struct {
	pages *lru.Cache[string, *cacheEntry]
}

type cacheEntry struct {
	gen         uint64
	contentType string
	body        []byte
}

// NewCache returns a cache bounded to capacity entries (minimum 1).
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{pages: lru.New[string, *cacheEntry](int64(capacity), nil, nil)}
}

// Len reports the number of live entries.
func (c *Cache) Len() int { return c.pages.Len() }

// errUncacheable is what a non-200 render hands the requests waiting on
// it; each then renders its own response.
var errUncacheable = errors.New("portal: response not cacheable")

// get returns key's page rendered at generation gen, calling render on
// a miss. hit reports that this caller did not render: the page was
// cached, or shared from a concurrent render. A page of any other
// generation is dropped, never returned.
func (c *Cache) get(key string, gen uint64, render func() (*cacheEntry, error)) (*cacheEntry, bool, error) {
	for {
		e, hit, err := c.pages.Get(key, render)
		if err != nil || e.gen == gen {
			return e, hit, err
		}
		c.pages.Remove(key)
	}
}

// captureWriter buffers a handler's response so it can be both sent to
// the client and stored in the cache.
type captureWriter struct {
	header http.Header
	status int
	buf    bytes.Buffer
}

func (w *captureWriter) Header() http.Header { return w.header }

func (w *captureWriter) WriteHeader(code int) { w.status = code }

func (w *captureWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }

// cacheable wraps a GET handler with the response cache, stamped by the
// job table's generation.
func (s *Server) cacheable(route string, h http.HandlerFunc) http.HandlerFunc {
	return s.cacheableGen(route, func() uint64 { return s.DB.Generation() }, h)
}

// cacheableGen is cacheable with an explicit generation source, so
// routes backed by the metric store stamp entries with its generation
// rather than the job table's — each route invalidates exactly when its
// own backing data changes. The generation is read before rendering: a
// concurrent write can only make the stored entry stale-stamped (an
// extra miss later), never serve stale data after the store changed.
func (s *Server) cacheableGen(route string, gen func() uint64, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		c := s.Cache
		if c == nil || r.Method != http.MethodGet {
			h(w, r)
			return
		}
		reg := s.registry()
		key := route + "?" + r.URL.Query().Encode() // Encode sorts params
		g := gen()
		var cw *captureWriter
		e, hit, err := c.get(key, g, func() (*cacheEntry, error) {
			cw = &captureWriter{header: make(http.Header), status: http.StatusOK}
			h(cw, r)
			if cw.status != http.StatusOK {
				return nil, errUncacheable
			}
			return &cacheEntry{gen: g, contentType: cw.header.Get("Content-Type"), body: cw.buf.Bytes()}, nil
		})
		if hit && err == nil {
			reg.Counter("gostats_portal_cache_hits_total",
				"Portal response cache hits by route.", "route", route).Inc()
			w.Header().Set("Content-Type", e.contentType)
			w.Write(e.body)
			return
		}
		reg.Counter("gostats_portal_cache_misses_total",
			"Portal response cache misses by route.", "route", route).Inc()
		if cw == nil {
			// The render this request waited on was not cacheable.
			h(w, r)
			return
		}
		for k, vs := range cw.header {
			w.Header()[k] = vs
		}
		if cw.status != http.StatusOK {
			w.WriteHeader(cw.status)
		}
		w.Write(cw.buf.Bytes())
	}
}
