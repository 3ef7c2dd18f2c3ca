# Standard entry points for the PIM-zd-tree reproduction.
#
# `make ci` is the gate: build, vet, then the full test suite under the
# race detector with GOMAXPROCS=4 so the parallel sort/semisort/scan paths
# — and the parallel pulled-chunk wave scans (TestPulledScanMultiWorker's
# seeded skewed batch) — actually run multi-worker (a 1-core CI would
# otherwise never exercise them). It also vets and tests the perfbench
# module, so an internal API change that breaks the benchmark's build
# fails here.

GO ?= go

.PHONY: ci build vet test race perfbench bench bench-json smoke profile

ci: build vet race perfbench smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Multi-worker regression net: the forked walks (pulled-chunk scans via
# TestPulledScanMultiWorker, fork-join updates/relayout via
# TestUpdateMultiWorker) only exercise their parallel paths above one proc.
race:
	GOMAXPROCS=4 $(GO) test -race ./...

# The benchmark is its own module (perfbench/go.mod) and is not reached
# by ./... from the root.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# CLI smoke tests: the trace exporters must emit parseable output
# (Chrome trace-event JSON with events, and valid JSONL); the admin server
# must come up with the flight recorder armed, pass its readiness probe
# (/readyz, which gates on the published index, not just liveness), serve
# a lint-clean Prometheus exposition, both flight snapshots, the
# slow-request capture and a valid SLO snapshot, and — on SIGTERM — drain
# gracefully and flush flight + slow-request dumps that pass
# `checkjson -flight` and whose analyze
# reports (critical-path and -requests stage attribution) are
# byte-identical across GOMAXPROCS; the concurrent serving engine must
# absorb parallel HTTP+TCP clients (pimzd-loadgen, which itself gates on
# /readyz) with mid-load /metrics + /snapshot/slowrequests +
# /snapshot/slo scrapes and drain cleanly on SIGTERM, and a short
# in-process saturation sweep must complete; a sharded server (-trees 4)
# must boot, export the per-shard metrics families and the
# /snapshot/shards layout; and the perf trajectory must not regress past
# 50% between the last two recorded BENCH_*.json reports.
smoke:
	mkdir -p .smoke
	$(GO) run ./cmd/pimzd-trace -op search -n 20000 -batch 500 -p 256 \
		-format chrome -out .smoke/search.trace.json
	$(GO) run ./tools/checkjson -chrome .smoke/search.trace.json
	$(GO) run ./cmd/pimzd-trace -op search -n 20000 -batch 500 -p 256 \
		-format jsonl -out .smoke/search.jsonl
	$(GO) run ./tools/checkjson -jsonl .smoke/search.jsonl
	$(GO) run ./cmd/pimzd-bench -experiment fig5a,fig6,table2,shardscale \
		-format csv -warmup 20000 -batch 2000 -p 256 \
		-bench-json .smoke/bench.json > /dev/null
	$(GO) run ./tools/checkjson -bench .smoke/bench.json
	$(GO) build -o .smoke/pimzd-serve ./cmd/pimzd-serve
	$(GO) build -o .smoke/pimzd-trace ./cmd/pimzd-trace
	./.smoke/pimzd-serve -addr 127.0.0.1:0 -port-file .smoke/port \
		-n 20000 -batch 1000 -p 128 -iters 10 -duration 60s \
		-flight 128 -slow-k 8 -flight-out .smoke/flight.json \
		-req-slow-k 8 -requests-out .smoke/requests.json & \
	SERVE_PID=$$!; \
	for i in $$(seq 1 100); do test -s .smoke/port && break; sleep 0.1; done; \
	test -s .smoke/port || { kill $$SERVE_PID; echo "serve: no port file"; exit 1; }; \
	ADDR=$$(cat .smoke/port); \
	for i in $$(seq 1 100); do \
		curl -fsS "http://$$ADDR/readyz" > /dev/null 2>&1 && break; sleep 0.2; done; \
	curl -fsS "http://$$ADDR/healthz" > /dev/null && \
	curl -fsS "http://$$ADDR/readyz" > /dev/null && \
	curl -fsS "http://$$ADDR/metrics" > .smoke/metrics.txt && \
	curl -fsS "http://$$ADDR/metrics?exemplars=1" > /dev/null && \
	curl -fsS "http://$$ADDR/snapshot/modules" > /dev/null && \
	curl -fsS "http://$$ADDR/snapshot/flightrecorder" > /dev/null && \
	curl -fsS "http://$$ADDR/snapshot/slowops" > /dev/null && \
	curl -fsS "http://$$ADDR/snapshot/slowrequests" > /dev/null && \
	curl -fsS "http://$$ADDR/snapshot/slo" > .smoke/slo.json && \
	grep -q '^pimzd_build_info{' .smoke/metrics.txt && \
	grep -q '^pimzd_process_uptime_seconds' .smoke/metrics.txt; \
	RC=$$?; kill -TERM $$SERVE_PID 2> /dev/null; wait $$SERVE_PID; \
	WRC=$$?; test $$RC -eq 0 && test $$WRC -eq 0
	$(GO) run ./tools/checkjson -promtext .smoke/metrics.txt
	$(GO) run ./tools/checkjson -flight .smoke/flight.json
	$(GO) run ./tools/checkjson -flight .smoke/requests.json
	$(GO) run ./tools/checkjson -slo .smoke/slo.json
	GOMAXPROCS=1 ./.smoke/pimzd-trace analyze .smoke/flight.json > .smoke/an1.txt
	GOMAXPROCS=4 ./.smoke/pimzd-trace analyze .smoke/flight.json > .smoke/an4.txt
	cmp .smoke/an1.txt .smoke/an4.txt
	GOMAXPROCS=1 ./.smoke/pimzd-trace analyze -requests .smoke/requests.json > .smoke/req1.txt
	GOMAXPROCS=4 ./.smoke/pimzd-trace analyze -requests .smoke/requests.json > .smoke/req4.txt
	cmp .smoke/req1.txt .smoke/req4.txt
	$(GO) build -o .smoke/pimzd-loadgen ./cmd/pimzd-loadgen
	./.smoke/pimzd-serve -addr 127.0.0.1:0 -port-file .smoke/cport \
		-tcp 127.0.0.1:0 -tcp-port-file .smoke/ctcp -ops "" \
		-n 20000 -p 128 -duration 60s & \
	SERVE_PID=$$!; \
	for i in $$(seq 1 100); do test -s .smoke/cport && test -s .smoke/ctcp && break; sleep 0.1; done; \
	test -s .smoke/cport || { kill $$SERVE_PID; echo "serve: no port file"; exit 1; }; \
	ADDR=$$(cat .smoke/cport); TCP=$$(cat .smoke/ctcp); \
	./.smoke/pimzd-loadgen -http $$ADDR -tcp $$TCP -workers 6 -duration 4s \
		-n 20000 > .smoke/loadgen.json & \
	LOAD_PID=$$!; \
	sleep 2; \
	curl -fsS "http://$$ADDR/metrics" > .smoke/serve-metrics.txt && \
	curl -fsS "http://$$ADDR/snapshot/slowrequests" > .smoke/load-requests.json && \
	curl -fsS "http://$$ADDR/snapshot/slo" > .smoke/load-slo.json; \
	MRC=$$?; wait $$LOAD_PID; LRC=$$?; \
	grep -q '^pimzd_requests_total' .smoke/serve-metrics.txt; GRC=$$?; \
	grep -q '^pimzd_request_stage_seconds_bucket' .smoke/serve-metrics.txt; SRC=$$?; \
	grep -q '"op_stages"' .smoke/loadgen.json; ORC=$$?; \
	kill -TERM $$SERVE_PID 2> /dev/null; wait $$SERVE_PID; WRC=$$?; \
	test $$MRC -eq 0 && test $$LRC -eq 0 && test $$GRC -eq 0 && \
	test $$SRC -eq 0 && test $$ORC -eq 0 && test $$WRC -eq 0
	$(GO) run ./tools/checkjson -promtext .smoke/serve-metrics.txt
	$(GO) run ./tools/checkjson -flight .smoke/load-requests.json
	$(GO) run ./tools/checkjson -slo .smoke/load-slo.json
	./.smoke/pimzd-serve -addr 127.0.0.1:0 -port-file .smoke/sport \
		-trees 4 -n 20000 -batch 1000 -p 128 -iters 10 -duration 60s & \
	SERVE_PID=$$!; \
	for i in $$(seq 1 100); do test -s .smoke/sport && break; sleep 0.1; done; \
	test -s .smoke/sport || { kill $$SERVE_PID; echo "serve: no port file"; exit 1; }; \
	ADDR=$$(cat .smoke/sport); \
	for i in $$(seq 1 100); do \
		curl -fsS "http://$$ADDR/healthz" > /dev/null 2>&1 && break; sleep 0.2; done; \
	curl -fsS "http://$$ADDR/metrics" > .smoke/shard-metrics.txt && \
	curl -fsS "http://$$ADDR/snapshot/shards" > .smoke/shards.json; \
	RC=$$?; \
	grep -q '^pimzd_shard_points{shard="3"}' .smoke/shard-metrics.txt; G1=$$?; \
	grep -q '^pimzd_shard_imbalance' .smoke/shard-metrics.txt; G2=$$?; \
	grep -q '"shards":4' .smoke/shards.json; G3=$$?; \
	kill -TERM $$SERVE_PID 2> /dev/null; wait $$SERVE_PID; WRC=$$?; \
	test $$RC -eq 0 && test $$G1 -eq 0 && test $$G2 -eq 0 && \
	test $$G3 -eq 0 && test $$WRC -eq 0
	$(GO) run ./tools/checkjson -promtext .smoke/shard-metrics.txt
	$(GO) run ./cmd/pimzd-bench -experiment saturate -format csv \
		-warmup 10000 -batch 1000 -p 128 > .smoke/saturate.csv
	test -s .smoke/saturate.csv
	$(GO) run ./tools/checkjson -diff BENCH_9.json BENCH_10.json -threshold 50
	$(GO) run ./tools/checkjson -diff BENCH_9.json BENCH_10.json -threshold 50 \
		-panels fig5a,fig6,table2,saturate,shardscale
	rm -rf .smoke

# Micro-benchmarks of the parallel substrate (sort, semisort, scan).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkSortKeys$$|BenchmarkSortBy|BenchmarkSemisort|BenchmarkExclusiveScan$$' -benchmem ./internal/parallel/

# End-to-end harness perf trajectory: wall-clock seconds and MOp/s per
# figure panel at the standard scaled-down experiment size, written to
# BENCH_<n>.json so performance PRs can diff the simulator's own speed.
# (The experiment CSVs are modeled time and stay byte-identical; this file
# is the wall-clock that changes.)
bench-json:
	$(GO) run ./cmd/pimzd-bench \
		-experiment fig5a,fig5c,fig6,fig7,fig8,fig9,table2,table3,latency,saturate,shardscale \
		-format csv -warmup 30000 -batch 3000 -p 256 \
		-bench-json BENCH_10.json > /dev/null
	$(GO) run ./tools/checkjson -bench BENCH_10.json

# CPU-profile the hot query panels (kNN + box + search) at the standard
# scaled-down size and print the flat top-15. The profile file is left in
# .profile/cpu.pprof for interactive `go tool pprof` (see EXPERIMENTS.md).
profile:
	mkdir -p .profile
	$(GO) run ./cmd/pimzd-bench -experiment fig5a,fig6,fig7 -format csv \
		-warmup 30000 -batch 3000 -p 256 \
		-cpuprofile .profile/cpu.pprof > /dev/null
	$(GO) tool pprof -top -nodecount 15 .profile/cpu.pprof
