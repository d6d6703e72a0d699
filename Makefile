GO ?= go

.PHONY: check vet vuln staticcheck fmt nogob build perfbench test race chaos watchparity apiload benchsmoke fuzzsmoke loc

## check: everything CI runs — vet, vuln scan, static analysis, formatting, the no-gob gate, build, benchmark harness build, chaos smoke, tests under -race, watch parity audit, api load smoke, fuzz smoke, benchmark smoke
check: vet vuln staticcheck fmt nogob build perfbench chaos race watchparity apiload fuzzsmoke benchsmoke

vet:
	$(GO) vet ./...

## vuln: best-effort govulncheck — advisory only, and a no-op where the
## tool or the vulndb is unreachable (offline CI), so it never fails check.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || echo "vuln: govulncheck reported findings (non-fatal)"; \
	else \
		echo "vuln: govulncheck not installed, skipping"; \
	fi

## staticcheck: best-effort static analysis — advisory only, and a no-op
## where the tool is not installed, so it never fails check offline.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... || echo "staticcheck: findings reported (non-fatal)"; \
	else \
		echo "staticcheck: not installed, skipping"; \
	fi

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

## nogob: gob is gone from the broker wire and from every file format;
## the one importer left is the test that proves an old gob client is
## refused.
nogob:
	@out="$$(grep -rl --include='*.go' --exclude-dir=.git --exclude-dir=.bench_build \
		'"encoding/gob"' . | grep -vx './wire_integration_test.go')"; \
	if [ -n "$$out" ]; then \
		echo "encoding/gob imported by:"; echo "$$out"; exit 1; \
	fi

build:
	$(GO) build ./...

## perfbench: vet and short-test the benchmark harness. It is a separate
## module, so `go build ./...` never compiles it; this catches an
## internal API change before the benchmark run does. Offline, like
## perfbench/run.sh.
perfbench:
	cd perfbench && export GOFLAGS=-mod=mod GOPROXY=off GOWORK=off && \
		$(GO) vet ./... && $(GO) test -short ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## chaos: fault-injection smoke — the transport robustness suite under
## -race; a 3-broker fabric simcluster run that kills the busiest
## broker mid-run and must rebalance live and conserve every snapshot
## (emitted == archived + spooled per host, zero duplicates past dedup);
## a fabric-of-one simcluster run through a broker outage and mid-frame
## resets that must conserve every snapshot with per-host order intact;
## and the storage restart audit that SIGKILLs the segment store
## mid-ingest and mid-compaction and must recover every synced point on
## reopen.
chaos:
	$(GO) test -run Chaos -race ./...
	@dir="$$(mktemp -d)"; rc=0; \
	$(GO) run -race ./cmd/simcluster -mode daemon -nodes 12 -days 0.5 \
		-brokers 3 -chaos-kill-broker -out "$$dir" -telemetry off \
		> "$$dir/run.log" 2>&1 || rc=$$?; \
	grep -E '^simcluster (fabric|chaos):' "$$dir/run.log"; \
	[ "$$rc" -eq 0 ] || tail -5 "$$dir/run.log"; \
	rm -rf "$$dir"; exit $$rc
	@dir="$$(mktemp -d)"; rc=0; \
	$(GO) run -race ./cmd/simcluster -mode daemon -nodes 12 -days 0.5 \
		-chaos -out "$$dir" -telemetry off \
		> "$$dir/run.log" 2>&1 || rc=$$?; \
	grep -E '^simcluster (fabric|chaos):' "$$dir/run.log"; \
	[ "$$rc" -eq 0 ] || tail -5 "$$dir/run.log"; \
	rm -rf "$$dir"; exit $$rc
	@dir="$$(mktemp -d)"; rc=0; \
	$(GO) run -race ./cmd/simcluster -chaos-kill-store -out "$$dir" \
		-telemetry off > "$$dir/run.log" 2>&1 || rc=$$?; \
	grep -E '^simcluster store-chaos:' "$$dir/run.log"; \
	[ "$$rc" -eq 0 ] || tail -5 "$$dir/run.log"; \
	rm -rf "$$dir"; exit $$rc

## watchparity: end-to-end detection audit — a simcluster -watch run must
## hit the online/post-hoc flag parity floor (exits non-zero below 95%),
## with provenance tracing live on every hop; then the same run on a
## 3-broker fabric, whose cross-owner delivery skew the live assembler
## must absorb. Both runs fail if any job is finalized twice.
watchparity:
	@dir="$$(mktemp -d)"; rc=0; \
	$(GO) run ./cmd/simcluster -mode daemon -nodes 8 -days 0.5 -watch \
		-out "$$dir" -telemetry off > "$$dir/run.log" 2>&1 || rc=$$?; \
	grep -E '^simcluster watch:' "$$dir/run.log"; \
	[ "$$rc" -eq 0 ] || tail -5 "$$dir/run.log"; \
	rm -rf "$$dir"; exit $$rc
	@dir="$$(mktemp -d)"; rc=0; \
	$(GO) run ./cmd/simcluster -mode daemon -nodes 8 -days 0.5 -watch \
		-brokers 3 -out "$$dir" -telemetry off > "$$dir/run.log" 2>&1 || rc=$$?; \
	grep -E '^simcluster (fabric|watch):' "$$dir/run.log"; \
	[ "$$rc" -eq 0 ] || tail -5 "$$dir/run.log"; \
	rm -rf "$$dir"; exit $$rc

## apiload: versioned query API smoke — a simcluster run with a durable
## store drives 10k concurrent /api/v1 readers in-process through the
## mixed jobs/metrics/top-N workload and must report throughput, p50/p95
## latency, cache hit ratio, and rate-limit rejections.
apiload:
	@dir="$$(mktemp -d)"; rc=0; \
	$(GO) run ./cmd/simcluster -mode daemon -nodes 4 -days 0.5 \
		-data-dir "$$dir/tsdb" -portal-readers 10000 -portal-requests 20000 \
		-out "$$dir" -telemetry off > "$$dir/run.log" 2>&1 || rc=$$?; \
	grep -E '^simcluster api-load:' "$$dir/run.log"; \
	[ "$$rc" -eq 0 ] || tail -5 "$$dir/run.log"; \
	rm -rf "$$dir"; exit $$rc

## benchsmoke: every benchmark runs once (-short skips the long suite) —
## catches benchmarks that break without paying for full measurement.
benchsmoke:
	$(GO) test -short -bench=. -benchtime=1x -run='^$$' . > /dev/null

## fuzzsmoke: a few hundred iterations of each fuzz target against its
## seed-derived corpus — catches decoder panics without a long campaign.
## The targets are every `func Fuzz…` in the module's test files, so a
## new one cannot be left out.
fuzzsmoke:
	@set -e; grep -rl --include='*_test.go' --exclude-dir=perfbench '^func Fuzz' . | sort | while read -r f; do \
		for t in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' "$$f"); do \
			echo "fuzzsmoke: $$t ($$(dirname "$$f"))"; \
			$(GO) test -run='^$$' -fuzz="^$$t\$$" -fuzztime=300x "$$(dirname "$$f")/"; \
		done; \
	done

## loc: the non-blank, non-comment, non-test Go line count over cmd/,
## internal/ and examples/ — the size a simplicity PR reports before and
## after.
loc:
	@find cmd internal examples -name '*.go' ! -name '*_test.go' -exec cat {} + \
		| grep -v '^[[:space:]]*$$' | grep -cv '^[[:space:]]*//'
