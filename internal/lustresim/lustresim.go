// Package lustresim models the shared Lustre filesystem servers that
// make the paper's interference analyses meaningful: jobs do not own the
// MDS and OSS — they share them, and "simultaneously running jobs may
// individually use modest filesystem resources but in aggregate
// overwhelm the managing servers" (§VI-A).
//
// The model is a load-dependent latency curve for the metadata server
// and an aggregate bandwidth cap for the object storage servers:
//
//   - MDS wait time follows an M/M/1-like queueing curve
//     wait = base / (1 - rho), capped at a saturation multiple, where
//     rho is the aggregate metadata request rate over capacity.
//   - OSS bandwidth is proportionally throttled when aggregate demand
//     exceeds capacity.
//
// The cluster engine (cluster.Engine) consults a Filesystem each step:
// aggregate demand in, per-client effective wait/bandwidth out. That is
// how one user's metadata storm raises every other job's MDCWait — the
// exact signature the paper's time-series analysis hunts for.
package lustresim

import (
	"math"
	"sync"
)

// Config sets the filesystem's service capacities.
type Config struct {
	// BaseMDSWaitUs is the unloaded metadata operation latency.
	BaseMDSWaitUs float64
	// MDSCapacity is the metadata request rate (reqs/s) at which the
	// MDS saturates.
	MDSCapacity float64
	// MaxWaitFactor caps the latency blow-up at saturation (a real MDS
	// queues and times out rather than serving infinitely slowly).
	MaxWaitFactor float64
	// OSSBandwidth is the aggregate object storage bandwidth (B/s).
	OSSBandwidth float64
	// Smoothing is the EWMA factor per step for observed load in [0,1];
	// higher reacts faster.
	Smoothing float64
}

// DefaultConfig returns capacities sized like the paper's scratch
// filesystem relative to the simulated cluster: a storm from one node
// (hundreds of thousands of reqs/s) saturates the MDS on its own.
func DefaultConfig() Config {
	return Config{
		BaseMDSWaitUs: 80,
		MDSCapacity:   250000,
		MaxWaitFactor: 100,
		OSSBandwidth:  60e9,
		Smoothing:     0.5,
	}
}

// Filesystem is the shared server state. Safe for concurrent use.
type Filesystem struct {
	mu  sync.Mutex
	cfg Config

	mdsLoad float64 // EWMA aggregate metadata reqs/s
	ossLoad float64 // EWMA aggregate bytes/s

	peakMDSLoad float64
	steps       int
}

// New builds a filesystem with the given capacities.
func New(cfg Config) *Filesystem {
	if cfg.Smoothing <= 0 || cfg.Smoothing > 1 {
		cfg.Smoothing = 0.5
	}
	if cfg.MaxWaitFactor < 1 {
		cfg.MaxWaitFactor = 1
	}
	return &Filesystem{cfg: cfg}
}

// Step folds one engine step's aggregate demand (summed over every
// client node) into the load estimate.
func (f *Filesystem) Step(mdsReqRate, ossBytesRate float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	a := f.cfg.Smoothing
	f.mdsLoad = (1-a)*f.mdsLoad + a*math.Max(0, mdsReqRate)
	f.ossLoad = (1-a)*f.ossLoad + a*math.Max(0, ossBytesRate)
	if f.mdsLoad > f.peakMDSLoad {
		f.peakMDSLoad = f.mdsLoad
	}
	f.steps++
}

// MDSWaitUs returns the current per-operation metadata latency every
// client observes.
func (f *Filesystem) MDSWaitUs() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.waitLocked()
}

func (f *Filesystem) waitLocked() float64 {
	rho := 0.0
	if f.cfg.MDSCapacity > 0 {
		rho = f.mdsLoad / f.cfg.MDSCapacity
	}
	if rho >= 1 {
		return f.cfg.BaseMDSWaitUs * f.cfg.MaxWaitFactor
	}
	w := f.cfg.BaseMDSWaitUs / (1 - rho)
	max := f.cfg.BaseMDSWaitUs * f.cfg.MaxWaitFactor
	if w > max {
		return max
	}
	return w
}

// Throttle returns the factor (0, 1] by which clients' Lustre data
// bandwidth is scaled under the current aggregate load.
func (f *Filesystem) Throttle() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cfg.OSSBandwidth <= 0 || f.ossLoad <= f.cfg.OSSBandwidth {
		return 1
	}
	return f.cfg.OSSBandwidth / f.ossLoad
}

// PeakMDSLoad reports the highest smoothed metadata load observed.
func (f *Filesystem) PeakMDSLoad() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.peakMDSLoad
}
