# Repo verification pipeline. `make verify` is what CI runs — ci.yml calls
# these same targets one step each, so a failing stage can be re-run alone and
# the two lists cannot drift. The one table gate is tier-1's golden-table pair
# (internal/bench: TestAllExperimentsRunAtQuickScale at quick scale,
# TestGoldenTables at full), which `make test` runs.

GO ?= go

.PHONY: verify build vet gofmt govet popcornvet vet-json allowlist escapes escapes-baseline profile membench popcornmc soak schedule-oracle test size

verify: build vet escapes test membench popcornmc soak size

build:
	$(GO) build ./...

# vet is the full static gate: gofmt, stock go vet and the repo's own
# analyzers.
vet: gofmt govet popcornvet

# Every tracked Go file must be gofmt-clean: `gofmt -l` lists the files it
# would rewrite, and any listed file fails the gate.
GOFMT ?= gofmt
gofmt:
	@out=$$($(GOFMT) -l $$(git ls-files '*.go')); if [ -n "$$out" ]; then echo "gofmt: needs formatting:"; echo "$$out"; exit 1; fi

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

# Host profiles on tap: run one experiment at full scale under the CPU and
# allocation profilers and print the hottest functions, then the sites that
# allocate the most objects. The .pprof files stay
# in PROFILE_DIR for `go tool pprof` (-list, -peek, -http). An experiment's
# cells run on up to GOMAXPROCS goroutines, so the CPU profile spans them
# all: its sample total is CPU time summed over cores, above the wall time.
EXP ?= F5b
PROFILE_DIR ?= /tmp/popcorn-profile
profile:
	mkdir -p $(PROFILE_DIR)
	$(GO) run ./cmd/benchtable -exp $(EXP) -scale full -cpuprofile $(PROFILE_DIR)/$(EXP).cpu.pprof -memprofile $(PROFILE_DIR)/$(EXP).mem.pprof > /dev/null
	$(GO) tool pprof -top -nodecount 25 $(PROFILE_DIR)/$(EXP).cpu.pprof
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount 25 $(PROFILE_DIR)/$(EXP).mem.pprof

# The page-table lookup benchmark at 4, 64 and 4 096 resident pages, one
# iteration each: it keeps the benchmark building and running. For timings
# run it with a real -benchtime.
membench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/mem

# Schedule exploration with the coherence sanitizer attached: every sweep row
# of cmd/popcornmc's table (contention, migration, futex), bare and under the
# fault plane (drop/dup/delay on every link; migration also loses a kernel
# mid-migration). See DESIGN.md §7-8. The other six plane combinations run
# in tier-1 (TestPlaneMatrix).
popcornmc:
	$(GO) run ./cmd/popcornmc -workload all -seeds 16
	$(GO) run ./cmd/popcornmc -workload all -seeds 16 -planes faults

# The soak rows of the same table: chaos at 128 seeds, overload and failover
# at 64 each (~5 s together, prebuilt).
# chaos: crash -> heal -> crash kernels under message noise, asserting every
# lost recoverable thread is restarted from its checkpoint at most once; see
# DESIGN.md §9. overload: 10x offered load, a gray link and a crash-heal
# cycle over the flow-control plane, asserting the backlog stays
# credit-bounded while the breaker runs a full open -> half-open -> close
# cycle; see DESIGN.md §13. failover: the origin kernel crashes on a
# protocol-relative trigger with the origin-replication plane attached,
# asserting the ring successor promotes with zero reclaimed pages and zero
# orphaned exits; see DESIGN.md §14.
soak:
	$(GO) run ./cmd/popcornmc -workload chaos -seeds 128
	$(GO) run ./cmd/popcornmc -workload overload -seeds 64
	$(GO) run ./cmd/popcornmc -workload failover -seeds 64

# Schedule oracle for refactors that must not move the schedule (not part of
# verify): build cmd/popcornmc and cmd/popcornsim from commit BASE and from the
# working tree, and diff their outputs. popcornmc's -v per-seed lines (events,
# violations, message counts) cover the three sweep legs and the three soak
# rows; popcornmc boots only the replicated kernel, so popcornsim -compare
# (popcorn, smp and multikernel on one workload) covers the baselines, its
# stdout and its -report JSON over a fixed list of workloads. Any output is a
# moved schedule. BASE is exported with git archive, so no worktree is left
# behind.
BASE ?= HEAD~1
ORACLE_DIR ?= /tmp/popcorn-schedule-oracle
schedule-oracle:
	rm -rf $(ORACLE_DIR) && mkdir -p $(ORACLE_DIR)/base
	git archive $(BASE) | tar -x -C $(ORACLE_DIR)/base
	cd $(ORACLE_DIR)/base && $(GO) build -o $(ORACLE_DIR)/popcornmc-base ./cmd/popcornmc && $(GO) build -o $(ORACLE_DIR)/popcornsim-base ./cmd/popcornsim
	$(GO) build -o $(ORACLE_DIR)/popcornmc-head ./cmd/popcornmc
	$(GO) build -o $(ORACLE_DIR)/popcornsim-head ./cmd/popcornsim
	@set -e; for args in "-workload all" "-workload all -planes faults" "-workload all -planes faults,flow,failover" \
		"-workload chaos" "-workload overload" "-workload failover"; do \
		echo "schedule-oracle: popcornmc -v -seeds 16 $$args"; \
		$(ORACLE_DIR)/popcornmc-base -v -seeds 16 $$args > $(ORACLE_DIR)/base.out 2>&1 || true; \
		$(ORACLE_DIR)/popcornmc-head -v -seeds 16 $$args > $(ORACLE_DIR)/head.out 2>&1 || true; \
		diff $(ORACLE_DIR)/base.out $(ORACLE_DIR)/head.out; \
	done
	@set -e; for wl in mmapstorm mmapstorm-shared faultsweep futexchain-shared npb-cg kvstore migrate; do \
		echo "schedule-oracle: popcornsim -compare -workload $$wl"; \
		for side in base head; do \
			rm -f $(ORACLE_DIR)/$$side.json; $(ORACLE_DIR)/popcornsim-$$side -compare -workload $$wl -report $(ORACLE_DIR)/$$side.json > $(ORACLE_DIR)/$$side.out 2>&1 || true; \
		done; \
		diff $(ORACLE_DIR)/base.out $(ORACLE_DIR)/head.out; \
		diff $(ORACLE_DIR)/base.json $(ORACLE_DIR)/head.json; \
	done
	@echo "schedule-oracle: per-seed lines and baseline runs identical to $(BASE)"

# Tier-1 under the race detector: among it the table gate (every experiment's
# table digest at both scales, traced equal to untraced, the traced span
# trees of T1, T2 and F2 pinned by their ID/trace lines; see
# internal/bench/testdata/golden_tables.txt) and the byte-determinism of the
# Chrome trace export (cmd/benchtable); see DESIGN.md §10 and §12. The race
# detector also guards the cells internal/bench runs side by side (DESIGN.md
# §6); that package takes ~18 s of this on a 2-core host.
test:
	$(GO) test -race ./...

# The design-quality instrument: non-test Go lines per package (comments and
# blanks included), the same for the replication core (the message layer plus
# the vm and threadgroup failover files), the justified //popcornvet:allow
# waivers as the linter counts them, the //popcornvet:bounded markers left
# in the tree, the string-typed Err fields (a reply carries the deciding
# kernel's error value, never its text), the Payload type assertions outside
# msg (a protocol message's payload types are its msg.Kind's, checked by the
# compiler), the distinct map types keyed by a page or a frame number (a
# resident page is one PageTable entry, so no per-page side map), and the
# settable options: exported fields declared in `type ...Config struct`
# blocks, and each command's command-line flags (as its -h lists them).
# ROADMAP quotes these numbers.
size:
	@find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' | xargs wc -l | awk '$$2 != "total" { sub("/[^/]*$$", "", $$2); n[$$2] += $$1 } END { for (d in n) printf "%6d  %s\n", n[d], d }' | sort -k2
	@printf '%6d  internal/msg + vm/failover.go + threadgroup/failover.go\n' $$(ls internal/msg/*.go internal/vm/failover.go internal/threadgroup/failover.go | grep -v _test.go | xargs cat | wc -l)
	@printf '%6d  waivers (popcornvet -allowlist)\n' $$($(GO) run ./cmd/popcornvet -allowlist . | grep -c '"analyzer"')
	@printf '%6d  //popcornvet:bounded markers\n' $$(grep -r --include='*.go' '^[[:space:]]*//popcornvet:bounded' . | wc -l)
	@printf '%6d  string-typed Err fields\n' $$(find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' | xargs grep -hE '^[[:space:]]+Err[[:space:]]+string([[:space:]]|$$)' | wc -l)
	@printf '%6d  Payload.( assertions outside internal/msg\n' $$(find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' ! -path './internal/msg/*' | xargs grep -o 'Payload\.(' | wc -l)
	@printf '%6d  map types keyed by VPN or FrameID\n' $$(find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' | xargs grep -ohE 'map\[(mem\.)?(VPN|FrameID)\][^(){}[:space:]]+' | sort -u | wc -l)
	@printf '%6d  exported fields of type ...Config structs\n' $$(find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' | xargs awk '/^type [A-Za-z0-9_]*Config struct \{/ { c = 1; next } c && /^}/ { c = 0 } c && /^\t[A-Z][A-Za-z0-9_]*[ \t,]/ { n++ } END { print n + 0 }')
	@for c in cmd/*/; do printf '%6d  flags of %s\n' $$($(GO) run ./$$c -h 2>&1 | grep -c '^  -') $${c%/}; done
