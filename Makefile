# Repo verification pipeline. `make verify` is what CI runs — ci.yml calls
# these same targets one step each, so a failing stage can be re-run alone and
# the two lists cannot drift.

GO ?= go

.PHONY: verify build vet govet popcornvet vet-json allowlist escapes escapes-baseline bench-compare profile popcornmc soak schedule-oracle test trace-demo size

verify: build vet escapes bench-compare test popcornmc soak trace-demo size

build:
	$(GO) build ./...

# vet is the full static gate: stock go vet plus the repo's own analyzers.
vet: govet popcornvet

govet:
	$(GO) vet ./...

# The repo's own determinism, protocol and kernel-locality linter; see
# DESIGN.md §6 (core analyzers) and §11 (kernel-locality contract).
popcornvet:
	$(GO) run ./cmd/popcornvet ./...

# Machine-readable findings for CI artifact upload; written even when the
# gate fails so the artifact always reflects the run.
vet-json:
	$(GO) run ./cmd/popcornvet -json ./... > popcornvet.json

# Inventory of every justified //popcornvet:allow waiver, uploaded next to
# the findings artifact so the accepted-exception population is reviewable.
allowlist:
	$(GO) run ./cmd/popcornvet -allowlist . > popcornvet-allowlist.json

# Escape-baseline gate (DESIGN.md §12): compare the compiler's hot-path heap
# escapes (`go build -gcflags=-m` over internal/sim, internal/msg,
# internal/trace) against the checked-in ESCAPES.json. Fails on any new or
# grown escape; after a deliberate change, regenerate with escapes-baseline
# and commit the diff.
escapes:
	$(GO) run ./cmd/popcornvet -escapes .

escapes-baseline:
	$(GO) run ./cmd/popcornvet -escapes -write .

# Table gate: regenerate a fresh full-scale snapshot and fail when any
# experiment's `data` bytes differ from the last checked-in snapshot; gen_ns
# is printed old -> new as information only (host time is popbench's job,
# `bash benchmark/run.sh`). Override BENCH_BASE when re-anchoring.
BENCH_BASE ?= BENCH_19.json
bench-compare:
	$(GO) run ./cmd/benchtable -scale full -json /tmp/bench_current.json > /dev/null
	$(GO) run ./cmd/benchtable -compare $(BENCH_BASE) /tmp/bench_current.json

# Host profiles on tap: run one experiment at full scale under the CPU and
# allocation profilers and print the hottest functions. The .pprof files stay
# in PROFILE_DIR for `go tool pprof` (-list, -peek, -http).
EXP ?= F5b
PROFILE_DIR ?= /tmp/popcorn-profile
profile:
	mkdir -p $(PROFILE_DIR)
	$(GO) run ./cmd/benchtable -exp $(EXP) -scale full -cpuprofile $(PROFILE_DIR)/$(EXP).cpu.pprof -memprofile $(PROFILE_DIR)/$(EXP).mem.pprof > /dev/null
	$(GO) tool pprof -top -nodecount 25 $(PROFILE_DIR)/$(EXP).cpu.pprof

# Schedule exploration with the coherence sanitizer attached: every sweep row
# of cmd/popcornmc's table (contention, migration, futex), bare and under the
# fault plane (drop/dup/delay on every link; migration also loses a kernel
# mid-migration). See DESIGN.md §7-8. The other six plane combinations run
# in tier-1 (TestPlaneMatrix).
popcornmc:
	$(GO) run ./cmd/popcornmc -workload all -seeds 16
	$(GO) run ./cmd/popcornmc -workload all -seeds 16 -planes faults

# The soak rows of the same table. chaos: crash -> heal -> crash kernels
# under message noise, asserting every lost recoverable thread is restarted
# from its checkpoint at most once; see DESIGN.md §9. overload: 10x offered
# load, a gray link and a crash-heal cycle over the flow-control plane,
# asserting the backlog stays credit-bounded while the breaker runs a full
# open -> half-open -> close cycle; see DESIGN.md §13. failover: the origin
# kernel crashes on a protocol-relative trigger with the origin-replication
# plane attached, asserting the ring successor promotes with zero reclaimed
# pages and zero orphaned exits, over 64 seeds (~3 s); see DESIGN.md §14.
soak:
	$(GO) run ./cmd/popcornmc -workload chaos -seeds 16
	$(GO) run ./cmd/popcornmc -workload overload -seeds 16
	$(GO) run ./cmd/popcornmc -workload failover -seeds 64

# Schedule oracle for refactors that must not move the schedule (not part of
# verify): build cmd/popcornmc from commit BASE and from the working tree, and
# diff their -v per-seed lines (events, violations, message counts) over the
# three sweep legs and the three soak rows. Any output is a moved schedule.
# BASE is exported with git archive, so no worktree is left behind.
BASE ?= HEAD~1
ORACLE_DIR ?= /tmp/popcorn-schedule-oracle
schedule-oracle:
	rm -rf $(ORACLE_DIR) && mkdir -p $(ORACLE_DIR)/base
	git archive $(BASE) | tar -x -C $(ORACLE_DIR)/base
	cd $(ORACLE_DIR)/base && $(GO) build -o $(ORACLE_DIR)/popcornmc-base ./cmd/popcornmc
	$(GO) build -o $(ORACLE_DIR)/popcornmc-head ./cmd/popcornmc
	@set -e; for args in "-workload all" "-workload all -planes faults" "-workload all -planes faults,flow,failover" \
		"-workload chaos" "-workload overload" "-workload failover"; do \
		echo "schedule-oracle: popcornmc -v -seeds 16 $$args"; \
		$(ORACLE_DIR)/popcornmc-base -v -seeds 16 $$args > $(ORACLE_DIR)/base.out 2>&1 || true; \
		$(ORACLE_DIR)/popcornmc-head -v -seeds 16 $$args > $(ORACLE_DIR)/head.out 2>&1 || true; \
		diff $(ORACLE_DIR)/base.out $(ORACLE_DIR)/head.out; \
	done
	@echo "schedule-oracle: per-seed lines identical to $(BASE)"

test:
	$(GO) test -race ./...

# Tracing determinism demo: run T2 twice with the causal tracer attached and
# assert the exported span trees (Chrome trace_event JSON) are byte-identical
# — same seed, same spans, same bytes; see DESIGN.md §10.
trace-demo:
	rm -rf /tmp/popcorn-trace-a /tmp/popcorn-trace-b
	$(GO) run ./cmd/benchtable -exp T2 -scale quick -trace -traceout /tmp/popcorn-trace-a > /dev/null
	$(GO) run ./cmd/benchtable -exp T2 -scale quick -trace -traceout /tmp/popcorn-trace-b > /dev/null
	cmp /tmp/popcorn-trace-a/T2.trace.json /tmp/popcorn-trace-b/T2.trace.json
	@echo "trace-demo: span trees byte-identical across runs"

# The design-quality instrument: non-test Go lines per package (comments and
# blanks included), the same for the replication core (the message layer plus
# the vm and threadgroup failover files), the justified //popcornvet:allow
# waivers as the linter counts them, and the //popcornvet:bounded markers left
# in the tree. ROADMAP quotes these numbers.
size:
	@find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' | xargs wc -l | awk '$$2 != "total" { sub("/[^/]*$$", "", $$2); n[$$2] += $$1 } END { for (d in n) printf "%6d  %s\n", n[d], d }' | sort -k2
	@printf '%6d  internal/msg + vm/failover.go + threadgroup/failover.go\n' $$(ls internal/msg/*.go internal/vm/failover.go internal/threadgroup/failover.go | grep -v _test.go | xargs cat | wc -l)
	@printf '%6d  waivers (popcornvet -allowlist)\n' $$($(GO) run ./cmd/popcornvet -allowlist . | grep -c '"analyzer"')
	@printf '%6d  //popcornvet:bounded markers\n' $$(grep -r --include='*.go' '^[[:space:]]*//popcornvet:bounded' . | wc -l)
