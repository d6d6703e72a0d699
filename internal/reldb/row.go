// Package reldb is gostats' relational job store — the PostgreSQL +
// Django-ORM substitute of §IV. It holds one row per job (metadata plus
// every Table I metric), supports Django-style "field__op" filters and
// the aggregation functions the §V-B analyses use (Avg/Count/Max/Min).
package reldb

import (
	"fmt"
	"sort"
	"strings"

	"gostats/internal/core"
)

// JobRow is one job's record: scheduler metadata and computed metrics in
// the same record, exactly as the paper stores them.
type JobRow struct {
	JobID   string
	User    string
	Account string
	Exe     string
	JobName string
	Queue   string
	Status  string

	Nodes   int
	Wayness int
	Hosts   []string

	SubmitTime float64 // epoch seconds
	StartTime  float64
	EndTime    float64

	Metrics core.Summary
}

// RunTime is the job's execution time in seconds.
func (r *JobRow) RunTime() float64 { return r.EndTime - r.StartTime }

// WaitTime is the job's queue wait in seconds.
func (r *JobRow) WaitTime() float64 { return r.StartTime - r.SubmitTime }

// NodeHours is the job's reserved node-hours.
func (r *JobRow) NodeHours() float64 { return float64(r.Nodes) * r.RunTime() / 3600 }

// fieldKind discriminates string fields from numeric ones.
type fieldKind int

const (
	kindStr fieldKind = iota
	kindNum
)

// field is an addressable column of the job table.
type field struct {
	kind fieldKind
	str  func(*JobRow) string
	num  func(*JobRow) float64
}

// fields is the column registry: every name addressable in queries,
// including all Table I metrics under their paper labels (lowercased).
var fields = map[string]field{
	// Metadata.
	"jobid":   {kind: kindStr, str: func(r *JobRow) string { return r.JobID }},
	"user":    {kind: kindStr, str: func(r *JobRow) string { return r.User }},
	"account": {kind: kindStr, str: func(r *JobRow) string { return r.Account }},
	"exe":     {kind: kindStr, str: func(r *JobRow) string { return r.Exe }},
	"jobname": {kind: kindStr, str: func(r *JobRow) string { return r.JobName }},
	"queue":   {kind: kindStr, str: func(r *JobRow) string { return r.Queue }},
	"status":  {kind: kindStr, str: func(r *JobRow) string { return r.Status }},

	"nodes":      {kind: kindNum, num: func(r *JobRow) float64 { return float64(r.Nodes) }},
	"wayness":    {kind: kindNum, num: func(r *JobRow) float64 { return float64(r.Wayness) }},
	"submittime": {kind: kindNum, num: func(r *JobRow) float64 { return r.SubmitTime }},
	"starttime":  {kind: kindNum, num: func(r *JobRow) float64 { return r.StartTime }},
	"endtime":    {kind: kindNum, num: func(r *JobRow) float64 { return r.EndTime }},
	"runtime":    {kind: kindNum, num: func(r *JobRow) float64 { return r.RunTime() }},
	"waittime":   {kind: kindNum, num: func(r *JobRow) float64 { return r.WaitTime() }},
	"nodehours":  {kind: kindNum, num: func(r *JobRow) float64 { return r.NodeHours() }},

	// Lustre metrics.
	"metadatarate":   {kind: kindNum, num: func(r *JobRow) float64 { return r.Metrics.MetaDataRate }},
	"mdcreqs":        {kind: kindNum, num: func(r *JobRow) float64 { return r.Metrics.MDCReqs }},
	"oscreqs":        {kind: kindNum, num: func(r *JobRow) float64 { return r.Metrics.OSCReqs }},
	"mdcwait":        {kind: kindNum, num: func(r *JobRow) float64 { return r.Metrics.MDCWait }},
	"oscwait":        {kind: kindNum, num: func(r *JobRow) float64 { return r.Metrics.OSCWait }},
	"lliteopenclose": {kind: kindNum, num: func(r *JobRow) float64 { return r.Metrics.LLiteOpenClose }},
	"lnetavebw":      {kind: kindNum, num: func(r *JobRow) float64 { return r.Metrics.LnetAveBW }},
	"lnetmaxbw":      {kind: kindNum, num: func(r *JobRow) float64 { return r.Metrics.LnetMaxBW }},

	// Network metrics.
	"internodeibavebw": {kind: kindNum, num: func(r *JobRow) float64 { return r.Metrics.InternodeIBAveBW }},
	"internodeibmaxbw": {kind: kindNum, num: func(r *JobRow) float64 { return r.Metrics.InternodeIBMaxBW }},
	"packetsize":       {kind: kindNum, num: func(r *JobRow) float64 { return r.Metrics.PacketSize }},
	"packetrate":       {kind: kindNum, num: func(r *JobRow) float64 { return r.Metrics.PacketRate }},
	"gigebw":           {kind: kindNum, num: func(r *JobRow) float64 { return r.Metrics.GigEBW }},

	// Processor metrics.
	"load_all":     {kind: kindNum, num: func(r *JobRow) float64 { return r.Metrics.LoadAll }},
	"load_l1hits":  {kind: kindNum, num: func(r *JobRow) float64 { return r.Metrics.LoadL1Hits }},
	"load_l2hits":  {kind: kindNum, num: func(r *JobRow) float64 { return r.Metrics.LoadL2Hits }},
	"load_llchits": {kind: kindNum, num: func(r *JobRow) float64 { return r.Metrics.LoadLLCHits }},
	"cpi":          {kind: kindNum, num: func(r *JobRow) float64 { return r.Metrics.CPI }},
	"cpld":         {kind: kindNum, num: func(r *JobRow) float64 { return r.Metrics.CPLD }},
	"flops":        {kind: kindNum, num: func(r *JobRow) float64 { return r.Metrics.Flops }},
	"vecpercent":   {kind: kindNum, num: func(r *JobRow) float64 { return r.Metrics.VecPercent }},
	"mbw":          {kind: kindNum, num: func(r *JobRow) float64 { return r.Metrics.MemBW }},

	// Energy metrics.
	"pkgwatts":  {kind: kindNum, num: func(r *JobRow) float64 { return r.Metrics.PkgWatts }},
	"corewatts": {kind: kindNum, num: func(r *JobRow) float64 { return r.Metrics.CoreWatts }},
	"dramwatts": {kind: kindNum, num: func(r *JobRow) float64 { return r.Metrics.DRAMWatts }},

	// OS metrics.
	"memusage":    {kind: kindNum, num: func(r *JobRow) float64 { return r.Metrics.MemUsage }},
	"cpu_usage":   {kind: kindNum, num: func(r *JobRow) float64 { return r.Metrics.CPUUsage }},
	"idle":        {kind: kindNum, num: func(r *JobRow) float64 { return r.Metrics.Idle }},
	"catastrophe": {kind: kindNum, num: func(r *JobRow) float64 { return r.Metrics.Catastrophe }},
	"mic_usage":   {kind: kindNum, num: func(r *JobRow) float64 { return r.Metrics.MICUsage }},
}

// Fields lists every queryable field name, sorted (the portal's Search
// field dropdown).
func Fields() []string {
	out := make([]string, 0, len(fields))
	for k := range fields {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// NumericFields lists the numeric (metric) field names, sorted.
func NumericFields() []string {
	var out []string
	for k, f := range fields {
		if f.kind == kindNum {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Value returns the row's value for a numeric field.
func Value(r *JobRow, name string) (float64, error) {
	f, ok := fields[strings.ToLower(name)]
	if !ok {
		return 0, fmt.Errorf("reldb: unknown field %q", name)
	}
	if f.kind != kindNum {
		return 0, fmt.Errorf("reldb: field %q is not numeric", name)
	}
	return f.num(r), nil
}
