# Local dev and CI run identical commands: .github/workflows/ci.yml calls
# these targets, so a green `make ci` locally means a green pipeline.

GO ?= go
# Output file for the pinned regression benchmarks (bench-pin).
BENCH_OUT ?= bench-pin.txt
# Per-target budget and package scope for fuzz-smoke; deep-verify.yml
# overrides both (FUZZTIME=5m, one package per matrix job).
FUZZTIME ?= 10s
FUZZ_PKGS ?= ./...
# Minimum total statement coverage accepted by the cover gate.
COVER_MIN ?= 75

.PHONY: build test race bench bench-pin bench-test loc fmt vet lint vulncheck cover fuzz-smoke sweep-smoke sweep-smoke-sharded deep-sweep deep-loadsweep reconfigure-smoke deep-reconfigure certify-smoke deep-certify examples fabric-conformance compose-smoke k8s-validate ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One-iteration pass over every benchmark; CI uploads the output as an
# artifact so regressions are visible per-commit.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# The pinned perf-gate benchmarks: simulator hot loop on routes (at load
# 0.1, and saturated on mesh_verify's torus lane) and on route sets (the
# adaptive step at load 1), removal runtime
# (the 14-switch paper cases plus the two large-SCC designs where the
# cycle search's bound pruning carries the time), synthesis of the same
# two designs (partition plus the dense shortest-path router), the
# Session-API overhead twin (which must track BenchmarkRemoval_
# within ~2%), the reconfiguration delta-vs-cold pair (the delta
# path's whole reason to exist is being much cheaper than a from-scratch
# removal, so a regression there is a product regression), and the
# lockstep batch-vs-sequential pair (the batch engine's ≥5x multi-core
# advantage over 16 independent runs must not erode), the fabric
# result-cache hot path (the per-cell overhead every cached sweep pays),
# a fully cache-served sweep (the fixed cost every sweep request pays
# around its cells: validation, enumeration, keys and lookups), the same
# 36-cell grid swept cold and serially (the per-cell build each fleet
# worker does: fault pick, routes, removal, ordering count), eight seed
# sets of it re-swept warm on two loopback workers (what every warm
# fleet sweep pays: keys, lookups, copies, placement) and one
# simulated, certified mesh_verify op end to end, all repeated so
# benchstat can establish significance. CI runs this on the
# PR head and base and fails on a >15% sec/op regression.
bench-pin:
	$(GO) test -run='^$$' -bench='^(BenchmarkSimStep$$|BenchmarkSimStepAdaptive$$|BenchmarkSimStepTorus$$|BenchmarkRemoval_|BenchmarkRemoveIncremental_(128Cores|D36_8_35sw)$$|BenchmarkSynthesize_(128Cores|D36_8_35sw)$$|BenchmarkSessionOverhead$$|BenchmarkReconfigure_|BenchmarkLockstep|BenchmarkCache|BenchmarkSweepWarmCache$$|BenchmarkSweepFleetGrid$$|BenchmarkSweepFleetCold$$|BenchmarkSweepFleetWarm$$|BenchmarkSweepVerified$$)' \
		-count=6 -benchtime=0.5s . | tee $(BENCH_OUT)

# nocbench's own tests: every workload for a few ops at seed 0 against
# its golden report digests, the traced replay's fidelity, and the metric
# names against BENCHMARK.json. benchmark/ is a separate module the root
# `go test ./...` cannot see, so it runs here, in the environment
# benchmark/run.sh builds it in.
bench-test:
	cd benchmark && GOFLAGS= GOWORK=off GOTOOLCHAIN=local $(GO) test ./...

# Go line counts of the root module, non-test and test, as the ROADMAP
# tracks them, then the non-test lines of each package of the root,
# cmd/ and internal/, so a change shows where code came or went. The
# benchmark module and its build cache are excluded.
GO_FILES = find . -name '*.go' -not -path './benchmark/*' -not -path './.bench_build/*'
loc:
	@echo "non-test Go lines: $$($(GO_FILES) ! -name '*_test.go' -exec cat {} + | wc -l)"
	@echo "test Go lines: $$($(GO_FILES) -name '*_test.go' -exec cat {} + | wc -l)"
	@echo "non-test Go lines by package:"
	@for d in . $$(find cmd internal -name '*.go' ! -name '*_test.go' -exec dirname {} \; | sort -u); do \
		printf '%8d  %s\n' "$$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)" "$$d"; \
	done

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Known-vulnerability scan. CI installs govulncheck and fails on
# findings; local runs skip gracefully when the binary is absent.
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# Full-suite coverage with a floor on the total: new scenario surface
# must bring its tests along. Alongside the profile it writes
# cover-packages.txt — one "package percent" row per tested package —
# which the CI coverage job diffs against the previous run's table to
# print per-package deltas.
cover:
	$(GO) test -coverprofile=cover.out ./... | tee cover-test.out
	@awk '/coverage:/ { pkg = ($$1 == "ok") ? $$2 : $$1; \
		for (i = 1; i <= NF; i++) if ($$i == "coverage:") { pct = $$(i+1); sub(/%/, "", pct); print pkg, pct } }' \
		cover-test.out | sort > cover-packages.txt
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "total statement coverage: $$total% (floor: $(COVER_MIN)%)"; \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { exit (t + 0 < min + 0) ? 1 : 0 }' || { \
		echo "coverage $$total% is below the $(COVER_MIN)% floor"; exit 1; }

# Static analysis. CI installs staticcheck and fails on findings; local
# runs skip gracefully when the binary is absent (the container image may
# have no network to install it).
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Simulated verification sweeps: the tool itself exits non-zero on any
# post-removal deadlock (or if nothing simulated), so CI just runs these
# and archives the reports. First the classic single-path grid, then a
# faulted adaptive mesh exercising the routing and fault axes.
sweep-smoke:
	$(GO) run ./cmd/nocexp sweep -simulate -benchmarks D26_media,torus:4x4:uniform \
		-switches 8,14 -seeds 0,1 -quiet -json sweep-report.json
	$(GO) run ./cmd/nocexp sweep -simulate -benchmarks mesh:4 \
		-routing odd-even,min-adaptive -faults 1 -seeds 0 -quiet \
		-json sweep-report-adaptive.json

# The distributed-path smoke: the same faulted grid swept serially and
# sharded across two in-process serve workers must produce byte-identical
# JSON reports (cmp exits non-zero on the first differing byte). The
# sharded run fills a fresh on-disk cache; a warm pass then sweeps four
# seeds over it in a new process, must answer exactly the first seed's 4
# cells from the cache and must still match a serial run of the
# four-seed grid.
SHARDED_SMOKE_GRID = -benchmarks mesh:4,torus:4x4:transpose -routing west-first,odd-even -faults 1 -quiet
sweep-smoke-sharded:
	$(GO) run ./cmd/nocexp sweep $(SHARDED_SMOKE_GRID) -parallel 1 -json sweep-serial.json
	rm -rf sweep-cache
	$(GO) run ./cmd/nocexp sweep $(SHARDED_SMOKE_GRID) -seeds 0 -shard-local 2 \
		-cache-dir sweep-cache -json sweep-sharded.json
	cmp sweep-serial.json sweep-sharded.json
	@echo "sharded report is byte-identical to serial"
	$(GO) run ./cmd/nocexp sweep $(SHARDED_SMOKE_GRID) -seeds 0,1,2,3 -parallel 1 \
		-json sweep-warm-serial.json
	$(GO) run ./cmd/nocexp sweep $(SHARDED_SMOKE_GRID) -seeds 0,1,2,3 -shard-local 2 \
		-cache-dir sweep-cache -json sweep-warm.json 2> sweep-warm.log || { cat sweep-warm.log; exit 1; }
	cat sweep-warm.log
	grep -q '^cache: 4 hits, ' sweep-warm.log
	cmp sweep-warm-serial.json sweep-warm.json
	@echo "warm sharded report is byte-identical to serial, 4 cells from the cache"

# The nightly tier's scenario surface: 8x8 and 10x10 meshes and tori,
# every turn model plus fully-adaptive minimal routing, two seeded link
# faults per cell, with flit-level verification. The mesh cells carry
# adversarial permutation traffic (bit-reversal gives min-adaptive a
# genuinely cyclic union CDG, so removal has real work; transpose
# stresses turn diversity) and the torus cells are the textbook dateline
# hazard. ~50 cells, sharded across four in-process workers through the
# same distributed path production deployments use (-shard-local keeps
# the report byte-identical to a serial run by construction).
deep-sweep:
	$(GO) run ./cmd/nocexp sweep -simulate -faults 2 \
		-benchmarks mesh:8x8:bitrev,mesh:8x8:transpose,mesh:10x10:transpose,torus:8,torus:10 \
		-routing west-first,north-last,negative-first,odd-even,min-adaptive \
		-seeds 0,1 -quiet -shard-local 4 -json deep-sweep-report.json

# The nightly load-sweep surface: 8x8 mesh and torus under three turn
# models, 8 seeds x 5 injection loads per design through the lockstep
# batch path, producing per-design latency/throughput curves with
# saturation points in the report. The -loads axis rides the same
# grouped scheduler the PR-tier sweeps use, so this also soaks the
# batch engine at nightly scale.
deep-loadsweep:
	$(GO) run ./cmd/nocexp sweep -simulate \
		-benchmarks mesh:8x8:transpose,torus:8:transpose \
		-routing west-first,odd-even,min-adaptive \
		-seeds 1,2,3,4,5,6,7,8 -loads 0.1,0.3,0.5,0.7,0.9 \
		-quiet -json deep-loadsweep-report.json

# Online-reconfiguration smoke: build an 8x8 odd-even design bundle,
# then inject two seeded link faults one at a time through the live
# reconfigure path. The gate lives in the tool: `nocexp reconfigure`
# exits non-zero if any delta leaves a cyclic CDG, if the drain
# simulation deadlocks, or if the final design fails verification.
# -differential additionally runs a from-scratch removal on the faulted
# design and prints both VC counts next to each other in the log.
reconfigure-smoke:
	$(GO) run ./cmd/nocexp design -preset mesh:8x8 -routing odd-even \
		-traffic all-to-all -out reconfig-design.json
	$(GO) run ./cmd/nocexp reconfigure -design reconfig-design.json \
		-fault-count 2 -fault-seed 1 -differential \
		-out reconfig-after.json -delta reconfig-deltas.json

# The nightly reconfiguration surface: mesh and torus 8x8 under three
# turn models, each hit with a bounded fault storm (sequential seeded
# faults, re-verified after every event, until no connectivity-
# preserving fault remains or the bound is reached). Every event runs
# the full commit protocol including the drain simulation.
deep-reconfigure:
	@for preset in mesh:8x8 torus:8x8; do \
		for routing in west-first north-last odd-even; do \
			echo "== deep-reconfigure $$preset $$routing"; \
			$(GO) run ./cmd/nocexp design -preset $$preset -routing $$routing \
				-traffic all-to-all -out deep-reconfig-design.json || exit 1; \
			$(GO) run ./cmd/nocexp reconfigure -design deep-reconfig-design.json \
				-storm -storm-max 12 -quiet || exit 1; \
		done; \
	done

# Certified-verification smoke: certify mesh and torus design bundles,
# re-validate each certificate with the independent shell/jq checker
# (no Go involved in the re-check), run a certified sweep through the
# in-tool three-leg agreement gate, and prove the re-check rejects a
# forged certificate over a seeded-bug design.
certify-smoke:
	./scripts/certify-smoke.sh

# The nightly certified surface: the full turn-model matrix with both
# -simulate and -certify, so every cell carries all three legs —
# structural removal, certified re-check, empirical simulation — and the
# in-tool agreement gate is the verdict. Any cell where the independent
# checker disagrees with the engine or the simulator exits non-zero.
deep-certify:
	$(GO) run ./cmd/nocexp sweep -simulate -certify \
		-benchmarks mesh:8x8:transpose,mesh:8x8:bitrev,torus:8 \
		-routing west-first,north-last,negative-first,odd-even,min-adaptive \
		-seeds 0,1 -quiet -json deep-certify-report.json

# FUZZTIME per fuzz target across every package of FUZZ_PKGS that
# defines one (PR tier: 10s smoke over ./...; nightly: 5m per package).
fuzz-smoke:
	@for pkg in $$($(GO) list $(FUZZ_PKGS)); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg 2>/dev/null | grep '^Fuzz' || true); do \
			echo "fuzzing $$pkg $$target ($(FUZZTIME))"; \
			$(GO) test -run='^$$' -fuzz="^$$target$$" -fuzztime=$(FUZZTIME) $$pkg || exit 1; \
		done; \
	done

# Examples have no test files; build each so they cannot silently rot.
examples:
	$(GO) build ./examples/...

# Run every example end to end (CI fans this out as a matrix; locally it
# is a serial smoke pass over the whole public API surface).
examples-run:
	@for d in examples/*/; do \
		echo "== running $$d"; \
		$(GO) run ./$$d > /dev/null || exit 1; \
	done

# End-to-end smoke of the HTTP job service: start `nocdr serve`, POST a
# benchmark design to /v1/remove, poll the job, and jq-assert the result
# is deadlock-free. CI runs this as its own job.
serve-smoke:
	./scripts/serve-smoke.sh

# End-to-end conformance of the job fabric: coordinator + two joined
# workers behind a bearer token, the same sweep twice through
# -coordinator with an on-disk cache (run 2 must be >= 90% hits and
# byte-identical), plus auth and registry assertions, and a final mTLS
# leg (gencert-minted PKI, joined worker, sweep over https). CI runs
# this as its own job.
fabric-conformance:
	./scripts/fabric-conformance.sh

# Schema-validate the Kubernetes manifests in deploy/k8s. CI installs
# kubeconform and fails on findings; local runs without it still render
# the kustomization (catching YAML/kustomize errors), and skip entirely
# when kubectl is absent too.
k8s-validate:
	@if ! command -v kubectl >/dev/null 2>&1; then \
		echo "kubectl not installed; skipping k8s manifest validation"; \
	elif command -v kubeconform >/dev/null 2>&1; then \
		kubectl kustomize deploy/k8s | kubeconform -strict -summary; \
	else \
		kubectl kustomize deploy/k8s > /dev/null; \
		echo "k8s manifests render cleanly (kubeconform not installed; schema check skipped)"; \
	fi

# Container smoke of the fleet topology docker-compose.yml describes:
# build the image, bring up coordinator + two workers, assert the
# registry converges, tear down. Nightly tier (needs a docker daemon).
compose-smoke:
	docker compose build
	docker compose up -d
	@for i in $$(seq 1 60); do \
		n=$$(curl -fsS http://127.0.0.1:8080/v1/workers 2>/dev/null | jq .count 2>/dev/null || echo 0); \
		[ "$$n" = "2" ] && break; sleep 1; \
	done; \
	curl -fsS http://127.0.0.1:8080/healthz | jq -e '.status == "ok" and .workers == 2' || \
		{ docker compose logs; docker compose down -v; exit 1; }
	docker compose down -v
	@echo "compose-smoke: OK"

ci: build vet fmt lint vulncheck race cover bench-test examples sweep-smoke sweep-smoke-sharded reconfigure-smoke certify-smoke fabric-conformance k8s-validate
