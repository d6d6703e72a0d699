package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"gostats/internal/model"
	"gostats/internal/schema"
)

// randomJob builds a job of hosts with random (monotone) counter
// series, exercising the metric engine over arbitrary-but-valid inputs:
// one stream of snapshots per host.
func randomJob(rng *rand.Rand, hosts, samples int) [][]model.Snapshot {
	var job [][]model.Snapshot
	for h := 0; h < hosts; h++ {
		host := string(rune('a' + h))
		var snaps []model.Snapshot
		// cpu: user/system/idle jiffy streams.
		var user, sys, idle uint64
		userRate := uint64(rng.Intn(50000) + 1)
		sysRate := uint64(rng.Intn(5000))
		idleRate := uint64(rng.Intn(50000))
		// mdc: request stream.
		var reqs, wait uint64
		reqRate := uint64(rng.Intn(100000))
		for i := 0; i < samples; i++ {
			snaps = append(snaps, model.Snapshot{Time: float64(i) * 600, Host: host, Records: []model.Record{
				{Class: schema.ClassCPU, Instance: "0", Values: []uint64{user, 0, sys, idle, 0, 0, 0}},
				{Class: schema.ClassMDC, Instance: "m0", Values: []uint64{reqs, wait}},
			}})
			user += userRate
			sys += sysRate
			idle += idleRate
			reqs += reqRate
			wait += reqRate * 100
		}
		job = append(job, snaps)
	}
	return job
}

// Property: metric bounds hold for any valid input — usage fractions and
// imbalance ratios live in [0,1], rates are non-negative.
func TestQuickMetricBounds(t *testing.T) {
	reg := schema.DefaultRegistry()
	f := func(seed int64, hostsRaw, samplesRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		hosts := int(hostsRaw)%6 + 1
		samples := int(samplesRaw)%10 + 2
		s, err := feed("prop", reg, slices.Concat(randomJob(rng, hosts, samples)...)).Result(VecWidth)
		if err != nil {
			return false
		}
		if s.CPUUsage < 0 || s.CPUUsage > 1 {
			return false
		}
		if s.Idle < 0 || s.Idle > 1 {
			return false
		}
		if s.Catastrophe < 0 || s.Catastrophe > 1 {
			return false
		}
		if s.MDCReqs < 0 || s.MetaDataRate < 0 || s.MDCWait < 0 {
			return false
		}
		// Maximum >= average for the same underlying counter: the peak
		// node-summed interval rate cannot be below nodes*average... but
		// it IS at least the per-node average when every host has the
		// same sample count, so check the weaker invariant:
		return s.MetaDataRate >= s.MDCReqs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: host order does not matter — the reduction is a set
// reduction.
func TestQuickHostPermutationInvariance(t *testing.T) {
	reg := schema.DefaultRegistry()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		job := randomJob(rng, 4, 5)
		s1, err := feed("prop", reg, slices.Concat(job...)).Result(VecWidth)
		if err != nil {
			return false
		}
		// Feed the hosts in reverse order.
		slices.Reverse(job)
		s2, err := feed("prop", reg, slices.Concat(job...)).Result(VecWidth)
		if err != nil {
			return false
		}
		return s1.CPUUsage == s2.CPUUsage && s1.MDCReqs == s2.MDCReqs &&
			s1.MetaDataRate == s2.MetaDataRate && s1.Idle == s2.Idle
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: doubling every counter delta doubles ARC rates (linearity)
// and leaves fraction metrics unchanged.
func TestQuickRateLinearity(t *testing.T) {
	reg := schema.DefaultRegistry()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		job := randomJob(rng, 2, 4)
		var doubled [][]model.Snapshot
		for _, snaps := range job {
			var dh []model.Snapshot
			for _, s := range snaps {
				d := s.Clone()
				for _, rec := range d.Records {
					for i := range rec.Values {
						rec.Values[i] *= 2
					}
				}
				dh = append(dh, d)
			}
			doubled = append(doubled, dh)
		}
		s1, err := feed("prop", reg, slices.Concat(job...)).Result(VecWidth)
		if err != nil {
			return false
		}
		s2, err := feed("prop", reg, slices.Concat(doubled...)).Result(VecWidth)
		if err != nil {
			return false
		}
		if !close(s2.MDCReqs, 2*s1.MDCReqs, 1e-6*(1+s1.MDCReqs)) {
			return false
		}
		if !close(s2.MetaDataRate, 2*s1.MetaDataRate, 1e-6*(1+s1.MetaDataRate)) {
			return false
		}
		// Fractions are scale-free.
		return close(s2.CPUUsage, s1.CPUUsage, 1e-9) && close(s2.Idle, s1.Idle, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: adding a completely idle host can only lower (or keep) the
// idle balance metric and the per-node average rates.
func TestQuickIdleHostMonotonicity(t *testing.T) {
	reg := schema.DefaultRegistry()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		job := randomJob(rng, 3, 4)
		s1, err := feed("prop", reg, slices.Concat(job...)).Result(VecWidth)
		if err != nil {
			return false
		}
		// The same hosts plus an idle host (idle jiffies only).
		var idle []model.Snapshot
		for i := 0; i < 4; i++ {
			idle = append(idle, model.Snapshot{Time: float64(i) * 600, Host: "zz-idle", Records: []model.Record{
				{Class: schema.ClassCPU, Instance: "0", Values: []uint64{0, 0, 0, uint64(i) * 60000, 0, 0, 0}}}})
		}
		s2, err := feed("prop", reg, slices.Concat(append(job, idle)...)).Result(VecWidth)
		if err != nil {
			return false
		}
		if s2.Idle > s1.Idle+1e-12 {
			return false
		}
		return s2.MDCReqs <= s1.MDCReqs+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
