GO       ?= go
PKGS     := ./...
STAMP    := $(shell date -u +%Y%m%dT%H%M%SZ)
FUZZTIME ?= 60s

.PHONY: all build test vet lint lint-fixtures harness-vet race verify fleet-smoke server-smoke memo-verify-smoke fuzz bench bench-smoke bench-sweep bench-baseline-1x bench-gate bench-warm benchdiff profile profile-diff clean

all: build test

build:
	$(GO) build $(PKGS)

test:
	$(GO) test $(PKGS)

vet:
	$(GO) vet $(PKGS)

# The repo-specific determinism/units/concurrency lint suite
# (internal/analysis): seeded randomness only, fixed-point Float() confined
# to diagnostics, no order-sensitive map iteration, no lock copies or stale
# sim.Event caches, no loose package-level state, joined goroutines,
# handled fail-safe load errors, pinned codec schema hashes, a
# vet-time-exhaustive fingerprint manifest, and testonly: no exported name
# in internal/ whose every reference is in a _test.go file. testonly's
# callers are the whole module's plain files plus _perfbench's, which
# count until the harness moves onto runtimes (ROADMAP item 1).
lint:
	$(GO) run ./cmd/odrips-vet $(PKGS)

# The lint suite's own fixture tests: every rule's must-flag/must-pass
# corpus under testdata/src, plus the directive machinery. Fast feedback
# when hacking on internal/analysis without running the whole test tier.
lint-fixtures:
	$(GO) test -run 'TestFixtures|TestDirectiveFindings|TestMustFlagFixturesFailTheBuild|TestTestonlySameForAnyPattern' ./internal/analysis

# go vet over the benchmark harness. _perfbench/ is a separate module
# under an underscore directory, so `go build ./...` never compiles it;
# this catches a change that breaks the harness before a benchmark run
# does. Offline: the harness requires only this module, by replace.
harness-vet:
	cd _perfbench && GOWORK=off GOFLAGS=-mod=mod GOPROXY=off $(GO) vet ./...

race:
	$(GO) test -race $(PKGS)
	$(GO) test -race -count=20 -run 'TestMemoPlaneConcurrentOpsRunOnce|TestTemplatesBuildOncePerSeed' ./internal/platform

# The CI verify tier: build, go vet, odrips-vet, go vet over the
# benchmark harness, then the full suite under the race detector (the
# parallel sweep engine is exercised by every experiment test) and 20
# rounds of the two tests that race platforms on a memo plane's op-table
# lock and on the template cache's lock. Mirrored by
# .github/workflows/ci.yml.
verify: build vet lint harness-vet race

# Fleet smoke tier: the fleet engine's full test suite under the race
# detector with the load harness raised to thousands of concurrent jobs
# against the shared memo plane, then a cold+warm 1000-device fleet
# (two drifts, three idle jitters) through the CLI against a persistent
# store (the warm run must load every run class from disk, and both
# runs' JSON "aggregates" blocks must be byte-identical), and a negative
# -workers/-shards, an unknown -format (the retired markdown one too) or
# -preset, a -memocachedir without -memocache, or a -preset or -devices
# given with -spec must exit 2 naming the flag, as must a spec file
# carrying the removed seed_stride or workers field, naming the field. The cold run saves
# every run class's result, so the warm run over the store it filled
# must execute no run and simulate no cycle at all; steady-state cycles
# must recur, so the cold run's plane may hold at most 64 records per
# memo class (one record per cycle is ~720 per class). A faulted leg
# runs the spec plus two devices sharing one fault plan at -shards 8
# and 3, whose "aggregates" blocks must be byte-identical, so the shard
# and fault-exception arithmetic is exercised through the CLI; its
# faulted run classes are not in the store, so they must adopt the
# cycle records the cold run wrote. Run by CI on every push; FLEET_LOAD_JOBS
# scales the harness.
FLEET_LOAD_JOBS ?= 2048
FLEETDIR := $(CURDIR)/.odrips-fleet-smoke
FLEET_SMOKE_SPEC := {"name":"fleet-smoke","devices":1000,"horizon":"6h","shards":8,"spread":{"drift_ppb":[0,40],"jitter_steps":["0s","250ms","500ms"]}}
FLEET_FAULT_SPEC := {"name":"fleet-smoke","devices":1000,"horizon":"6h","shards":8,"spread":{"drift_ppb":[0,40],"jitter_steps":["0s","250ms","500ms"],"faults":[{"device":3,"plan":"wake@1.3"},{"device":517,"plan":"wake@1.3"}]}}
FLEET_SEED_SPEC  := {"devices":10,"spread":{"seed_stride":3}}
FLEET_WORKERS_SPEC := {"devices":10,"workers":2}
fleet-smoke:
	ODRIPS_FLEET_LOAD_JOBS=$(FLEET_LOAD_JOBS) $(GO) test -race -count=1 ./internal/fleet ./internal/platform -run 'TestFleet|TestMemoPlane'
	rm -rf $(FLEETDIR) && mkdir -p $(FLEETDIR)
	$(GO) build -o $(FLEETDIR)/ ./cmd/odrips-fleet
	printf '%s\n' '$(FLEET_SEED_SPEC)' > $(FLEETDIR)/seed.json
	printf '%s\n' '$(FLEET_WORKERS_SPEC)' > $(FLEETDIR)/workers.json
	printf '%s\n' '$(FLEET_SMOKE_SPEC)' > $(FLEETDIR)/spec.json
	for neg in "-workers -1|-workers" "-shards -3|-shards" "-format bogus|-format" "-format markdown|-format" "-preset bogus|-preset" "-memocachedir $(FLEETDIR)/nostore|-memocachedir" "-spec $(FLEETDIR)/seed.json|seed_stride" "-spec $(FLEETDIR)/workers.json|workers" "-spec $(FLEETDIR)/spec.json -preset baseline|-preset" "-spec $(FLEETDIR)/spec.json -devices 5|-devices"; do \
		flag=$${neg%%|*}; name=$${neg##*|}; code=0; \
		$(FLEETDIR)/odrips-fleet -devices 10 $$flag > /dev/null 2> $(FLEETDIR)/neg.txt || code=$$?; \
		if [ $$code -ne 2 ] || ! grep -q -e "$$name" $(FLEETDIR)/neg.txt; then \
			echo "fleet-smoke: odrips-fleet $$flag exited $$code, want 2 naming $$name:"; cat $(FLEETDIR)/neg.txt; exit 1; \
		fi; \
	done
	$(FLEETDIR)/odrips-fleet -spec $(FLEETDIR)/spec.json -memocache rw -memocachedir $(FLEETDIR)/store -format json -o $(FLEETDIR)/cold.json
	$(FLEETDIR)/odrips-fleet -spec $(FLEETDIR)/spec.json -memocache ro -memocachedir $(FLEETDIR)/store -format json -o $(FLEETDIR)/warm.json
	recs=$$(sed -n 's/^      "records": \([0-9]*\),/\1/p' $(FLEETDIR)/cold.json); \
	classes=$$(sed -n 's/^    "memo_classes": \([0-9]*\),/\1/p' $(FLEETDIR)/cold.json); \
	sim=$$(sed -n 's/^    "simulated_cycles": \([0-9]*\),/\1/p' $(FLEETDIR)/warm.json); \
	runs=$$(sed -n 's/^    "run_classes": \([0-9]*\),/\1/p' $(FLEETDIR)/warm.json); \
	loaded=$$(sed -n 's/^    "loaded_runs": \([0-9]*\),/\1/p' $(FLEETDIR)/warm.json); \
	if [ -z "$$sim" ] || [ -z "$$recs" ] || [ -z "$$classes" ] || [ -z "$$runs" ] || [ $$sim -ne 0 ] || [ "$$loaded" != "$$runs" ] || [ $$recs -gt $$(( 64 * classes )) ]; then \
		echo "fleet-smoke: cold run recorded '$$recs' plane records in '$$classes' memo classes, warm run loaded '$$loaded' of '$$runs' run classes and simulated '$$sim' cycles; want at most 64 records per class, every run class loaded, 0 cycles"; exit 1; \
	fi; \
	echo "fleet-smoke: cold run recorded $$recs plane records in $$classes memo classes; warm run loaded $$loaded of $$runs run classes, simulated $$sim cycles"
	sed -n '/^  "aggregates"/,/^  "memo"/p' $(FLEETDIR)/cold.json > $(FLEETDIR)/cold.agg
	sed -n '/^  "aggregates"/,/^  "memo"/p' $(FLEETDIR)/warm.json > $(FLEETDIR)/warm.agg
	test -s $(FLEETDIR)/cold.agg && cmp $(FLEETDIR)/cold.agg $(FLEETDIR)/warm.agg || { echo "fleet-smoke: cold and warm aggregates differ"; exit 1; }
	printf '%s\n' '$(FLEET_FAULT_SPEC)' > $(FLEETDIR)/faults.json
	for shards in 8 3; do \
		$(FLEETDIR)/odrips-fleet -spec $(FLEETDIR)/faults.json -shards $$shards -memocache ro -memocachedir $(FLEETDIR)/store -format json -o $(FLEETDIR)/faults$$shards.json || exit 1; \
		sed -n '/^  "aggregates"/,/^  "memo"/p' $(FLEETDIR)/faults$$shards.json > $(FLEETDIR)/faults$$shards.agg; \
	done
	test -s $(FLEETDIR)/faults8.agg && cmp $(FLEETDIR)/faults8.agg $(FLEETDIR)/faults3.agg || { echo "fleet-smoke: faulted aggregates differ between -shards 8 and 3"; exit 1; }
	grep -q '"adopted": [1-9]' $(FLEETDIR)/faults8.json || { echo "fleet-smoke: the faulted run classes adopted nothing from the memo store"; exit 1; }
	@rm -rf $(FLEETDIR)
	@echo fleet-smoke OK

# Server smoke tier: build odrips-server and odrips-loadgen, bring TWO
# servers up on ephemeral ports over one shared persistent memo store,
# replay SERVER_SMOKE_JOBS bursty submissions round-robined across both
# (zero drops, monotone progress, per-class byte-identical aggregates
# regardless of which server ran the job — loadgen exits nonzero on any
# violation), then check each server's /v1/stats: no claim takeovers
# (a leaked claim ages into one) and at least one claim owned between
# them. Then SIGTERM both and require clean drains (exit 0). The shared
# store exercises the claim protocol, the only compute dedup, across
# processes and across each server's 4 workers. Before any of that, a
# negative -workers, -capacity, -retain or -max-devices must exit 2 naming
# the flag without ever listening. Run by CI on every push.
SMOKEDIR          := $(CURDIR)/.odrips-server-smoke
SERVER_SMOKE_JOBS ?= 200
server-smoke:
	rm -rf $(SMOKEDIR) && mkdir -p $(SMOKEDIR)/store
	$(GO) build -o $(SMOKEDIR)/ ./cmd/odrips-server ./cmd/odrips-loadgen
	for flag in "-workers -1" "-capacity -1" "-retain -1" "-max-devices -1"; do \
		name=$${flag%% *}; code=0; \
		timeout 10 $(SMOKEDIR)/odrips-server -addr 127.0.0.1:0 $$flag > $(SMOKEDIR)/neg.txt 2>&1 || code=$$?; \
		if [ $$code -ne 2 ] || grep -q 'listening on' $(SMOKEDIR)/neg.txt || ! grep -q -e "$$name" $(SMOKEDIR)/neg.txt; then \
			echo "server-smoke: odrips-server $$flag exited $$code, want 2 naming $$name without listening:"; cat $(SMOKEDIR)/neg.txt; exit 1; \
		fi; \
	done
	$(SMOKEDIR)/odrips-server -addr 127.0.0.1:0 -workers 4 -memocache rw -memocachedir $(SMOKEDIR)/store > $(SMOKEDIR)/server1.log 2>&1 & \
	pid1=$$!; \
	$(SMOKEDIR)/odrips-server -addr 127.0.0.1:0 -workers 4 -memocache rw -memocachedir $(SMOKEDIR)/store > $(SMOKEDIR)/server2.log 2>&1 & \
	pid2=$$!; \
	for i in $$(seq 1 100); do grep -q 'listening on' $(SMOKEDIR)/server1.log 2>/dev/null && grep -q 'listening on' $(SMOKEDIR)/server2.log 2>/dev/null && break; sleep 0.1; done; \
	addr1=$$(sed -n 's/.*listening on //p' $(SMOKEDIR)/server1.log | head -1); \
	addr2=$$(sed -n 's/.*listening on //p' $(SMOKEDIR)/server2.log | head -1); \
	if [ -z "$$addr1" ] || [ -z "$$addr2" ]; then echo "server-smoke: a server never came up"; cat $(SMOKEDIR)/server1.log $(SMOKEDIR)/server2.log; kill $$pid1 $$pid2 2>/dev/null; exit 1; fi; \
	$(SMOKEDIR)/odrips-loadgen -addr "http://$$addr1,http://$$addr2" -jobs $(SERVER_SMOKE_JOBS) -burst -concurrency 32 || { kill $$pid1 $$pid2 2>/dev/null; exit 1; }; \
	stats1=$$(curl -sf "http://$$addr1/v1/stats") && stats2=$$(curl -sf "http://$$addr2/v1/stats") || { echo "server-smoke: /v1/stats failed"; kill $$pid1 $$pid2 2>/dev/null; exit 1; }; \
	for st in "$$stats1" "$$stats2"; do echo "$$st" | grep -q '"claim_takeovers":0[,}]' || { echo "server-smoke: a server took over a claim: $$st"; kill $$pid1 $$pid2 2>/dev/null; exit 1; }; done; \
	owned1=$$(echo "$$stats1" | sed -n 's/.*"claims_owned":\([0-9]*\).*/\1/p'); \
	owned2=$$(echo "$$stats2" | sed -n 's/.*"claims_owned":\([0-9]*\).*/\1/p'); \
	if [ $$(( $${owned1:-0} + $${owned2:-0} )) -lt 1 ]; then echo "server-smoke: no server owned a claim ($$owned1 + $$owned2)"; kill $$pid1 $$pid2 2>/dev/null; exit 1; fi; \
	echo "server-smoke: claims owned $$owned1 + $$owned2, 0 takeovers"; \
	kill -TERM $$pid1 $$pid2; \
	wait $$pid1 || { echo "server-smoke: server 1 exited nonzero after SIGTERM"; cat $(SMOKEDIR)/server1.log; kill $$pid2 2>/dev/null; exit 1; }; \
	wait $$pid2 || { echo "server-smoke: server 2 exited nonzero after SIGTERM"; cat $(SMOKEDIR)/server2.log; exit 1; }
	@rm -rf $(SMOKEDIR)
	@echo server-smoke OK

# Memo audit smoke tier: fill a store with `-exp all -sweep fast` (the
# store a bench-cold run fills), which must write each disk entry exactly
# once (its -memostats store writes equal its entries: runs never write,
# the CLI flushes each dirty memo class once), and a rw rerun of it must
# miss the store 0 times: a CLI that stops persisting fails here, where
# the audit below would pass vacuously over an empty store. The fill's
# plane must hold at most 3 MEE op records and run exactly 3 MEE ops for
# real (every memo class shares one op table, and -exp all uses one
# region geometry), and the rw rerun must run none: it loads them from
# the store's meeops entry. Then rerun
# it read-only under
# -fastforward verify — every adopted cycle record is re-simulated and
# diffed, every adopted MEE op record re-executed and diffed, every
# stored point (sweep, transition, wake-latency sample, coalescing and
# MEE cache row) recomputed and compared byte for byte — and require
# byte-identical stdout. The rw rerun's 0 misses cover every point
# class too. A warm rerun of -exp all,fleet with
# -memostats must show exactly one platform template built: every -exp
# all platform and every fleet run class shares the presets' seed's
# context image and formatted MEE tree. A storeless
# fig6a,fig6d,coalescing run
# must then hold at least one and at most three MEE op records in all
# (formatted save, imported restore, primed save): an op-record key that
# picked up the root counter, ciphertext or the memo class would exceed
# the bound, and a dead lookup would hold none. coalescing is in the run
# because its 40-cycle points visit 40 root values per platform; the
# sweeps' 4-cycle points alone land a root-keyed build exactly on the
# bound. The
# fleet leg does the same with a jittered 2,000-device fleet, whose
# adopted records replay across drifts and idle jitters, and compares
# the two runs' JSON "aggregates" blocks, then reruns warm read-only:
# that run must load every run class's result ("loaded_runs" equals
# "run_classes") and report the fill's aggregates. One binary serves each store,
# so the store's build fingerprint matches. The retired -memocache
# verify mode must exit 2 naming its replacement. Last, the
# tamper-detection example must catch all three of its attacks: they
# reach DRAM through Platform.Mem(), the escape that materializes the
# bytes MEE op replay leaves virtual. Run by CI on every push.
VERIFYDIR := $(CURDIR)/.odrips-memo-verify-smoke
VERIFY_FLEET_SPEC := {"name":"memo-verify-smoke","devices":2000,"horizon":"6h","shards":4,"spread":{"drift_ppb":[0,40],"jitter_steps":["0s","250ms","500ms"]}}
memo-verify-smoke:
	rm -rf $(VERIFYDIR) && mkdir -p $(VERIFYDIR)
	$(GO) build -o $(VERIFYDIR)/ ./cmd/odrips-bench ./cmd/odrips-fleet
	$(VERIFYDIR)/odrips-bench -exp all -sweep fast -memocache rw -memocachedir $(VERIFYDIR)/store -memostats > $(VERIFYDIR)/fillstats.txt
	sed '/^Memo statistics$$/,$$d' $(VERIFYDIR)/fillstats.txt > $(VERIFYDIR)/fill.txt
	entries=$$(sed -n 's/^| persistent memo store .*| \([0-9]*\) entries, .*/\1/p' $(VERIFYDIR)/fillstats.txt); \
	writes=$$(sed -n 's/^| persistent memo store .*| \([0-9]*\) writes, .*/\1/p' $(VERIFYDIR)/fillstats.txt); \
	if [ -z "$$entries" ] || [ "$$entries" -lt 1 ] || [ "$$writes" != "$$entries" ]; then \
		echo "memo-verify-smoke: the fill made '$$writes' store writes for '$$entries' disk entries; want one write per entry:"; grep 'persistent memo store' $(VERIFYDIR)/fillstats.txt; exit 1; \
	fi; \
	echo "memo-verify-smoke: the fill wrote $$entries entries in $$writes store writes"
	ops=$$(sed -n 's/^| cycle memo plane .* \([0-9]*\) op records, [0-9]* run,.*/\1/p' $(VERIFYDIR)/fillstats.txt); \
	run=$$(sed -n 's/^| cycle memo plane .* op records, \([0-9]*\) run,.*/\1/p' $(VERIFYDIR)/fillstats.txt); \
	if [ -z "$$ops" ] || [ $$ops -gt 3 ] || [ "$$run" != 3 ]; then \
		echo "memo-verify-smoke: the fill holds '$$ops' MEE op records after '$$run' real ops; want at most 3 records and exactly 3 ops:"; grep 'cycle memo plane' $(VERIFYDIR)/fillstats.txt; exit 1; \
	fi; \
	echo "memo-verify-smoke: the fill holds $$ops MEE op records and ran $$run MEE ops for real"
	$(VERIFYDIR)/odrips-bench -exp all -sweep fast -memocache rw -memocachedir $(VERIFYDIR)/store -memostats > $(VERIFYDIR)/rerun.txt
	misses=$$(sed -n 's/^| persistent memo store *| [0-9]* *| \([0-9]*\) .*/\1/p' $(VERIFYDIR)/rerun.txt); \
	if [ "$$misses" != 0 ]; then \
		echo "memo-verify-smoke: the rw rerun missed the store '$$misses' times; want 0:"; grep 'persistent memo store' $(VERIFYDIR)/rerun.txt; exit 1; \
	fi; \
	run=$$(sed -n 's/^| cycle memo plane .* op records, \([0-9]*\) run,.*/\1/p' $(VERIFYDIR)/rerun.txt); \
	if [ "$$run" != 0 ]; then \
		echo "memo-verify-smoke: the rw rerun ran '$$run' MEE ops for real; want 0:"; grep 'cycle memo plane' $(VERIFYDIR)/rerun.txt; exit 1; \
	fi
	$(VERIFYDIR)/odrips-bench -exp all -sweep fast -memocache ro -memocachedir $(VERIFYDIR)/store -fastforward verify > $(VERIFYDIR)/audit.txt
	cmp $(VERIFYDIR)/fill.txt $(VERIFYDIR)/audit.txt
	$(VERIFYDIR)/odrips-bench -exp all,fleet -sweep fast -memocache ro -memocachedir $(VERIFYDIR)/store -memostats > $(VERIFYDIR)/tplstats.txt
	built=$$(sed -n 's/^| platform templates .*| \([0-9]*\) built,.*/\1/p' $(VERIFYDIR)/tplstats.txt); \
	if [ "$$built" != 1 ]; then \
		echo "memo-verify-smoke: -exp all,fleet -sweep fast built '$$built' platform templates, want 1:"; grep 'platform templates' $(VERIFYDIR)/tplstats.txt; exit 1; \
	fi; \
	echo "memo-verify-smoke: -exp all,fleet -sweep fast built $$built platform template"
	$(VERIFYDIR)/odrips-bench -exp fig6a,fig6d,coalescing -sweep fast -memostats > $(VERIFYDIR)/opstats.txt
	ops=$$(sed -n 's/^| cycle memo plane .* \([0-9]*\) op records,.*/\1/p' $(VERIFYDIR)/opstats.txt); \
	if [ -z "$$ops" ] || [ $$ops -lt 1 ] || [ $$ops -gt 3 ]; then \
		echo "memo-verify-smoke: storeless fig6a,fig6d,coalescing holds '$$ops' MEE op records; want 1 to 3:"; grep 'cycle memo plane' $(VERIFYDIR)/opstats.txt; exit 1; \
	fi; \
	echo "memo-verify-smoke: storeless fig6a,fig6d,coalescing holds $$ops MEE op records"
	printf '%s\n' '$(VERIFY_FLEET_SPEC)' > $(VERIFYDIR)/fleet.json
	$(VERIFYDIR)/odrips-fleet -spec $(VERIFYDIR)/fleet.json -memocache rw -memocachedir $(VERIFYDIR)/fleetstore -format json -o $(VERIFYDIR)/fleet-fill.json
	$(VERIFYDIR)/odrips-fleet -spec $(VERIFYDIR)/fleet.json -memocache ro -memocachedir $(VERIFYDIR)/fleetstore -fastforward verify -format json -o $(VERIFYDIR)/fleet-audit.json
	sed -n '/^  "aggregates"/,/^  "memo"/p' $(VERIFYDIR)/fleet-fill.json > $(VERIFYDIR)/fleet-fill.agg
	sed -n '/^  "aggregates"/,/^  "memo"/p' $(VERIFYDIR)/fleet-audit.json > $(VERIFYDIR)/fleet-audit.agg
	test -s $(VERIFYDIR)/fleet-fill.agg && cmp $(VERIFYDIR)/fleet-fill.agg $(VERIFYDIR)/fleet-audit.agg || { echo "memo-verify-smoke: fleet fill and audit aggregates differ"; exit 1; }
	$(VERIFYDIR)/odrips-fleet -spec $(VERIFYDIR)/fleet.json -memocache ro -memocachedir $(VERIFYDIR)/fleetstore -format json -o $(VERIFYDIR)/fleet-warm.json
	sed -n '/^  "aggregates"/,/^  "memo"/p' $(VERIFYDIR)/fleet-warm.json > $(VERIFYDIR)/fleet-warm.agg
	cmp $(VERIFYDIR)/fleet-fill.agg $(VERIFYDIR)/fleet-warm.agg || { echo "memo-verify-smoke: fleet fill and warm aggregates differ"; exit 1; }
	runs=$$(sed -n 's/^    "run_classes": \([0-9]*\),/\1/p' $(VERIFYDIR)/fleet-warm.json); \
	loaded=$$(sed -n 's/^    "loaded_runs": \([0-9]*\),/\1/p' $(VERIFYDIR)/fleet-warm.json); \
	if [ -z "$$runs" ] || [ "$$loaded" != "$$runs" ]; then \
		echo "memo-verify-smoke: the warm fleet run loaded '$$loaded' of '$$runs' run classes"; exit 1; \
	fi; \
	echo "memo-verify-smoke: the warm fleet run loaded $$loaded of $$runs run classes"
	code=0; $(VERIFYDIR)/odrips-bench -exp none -memocache verify -memocachedir $(VERIFYDIR)/store > /dev/null 2> $(VERIFYDIR)/retired.txt || code=$$?; \
	if [ $$code -ne 2 ] || ! grep -q -e '-fastforward verify' $(VERIFYDIR)/retired.txt; then \
		echo "memo-verify-smoke: -memocache verify exited $$code, want 2 naming -fastforward verify:"; cat $(VERIFYDIR)/retired.txt; exit 1; \
	fi
	$(GO) run ./examples/tamper-detection > $(VERIFYDIR)/tamper.txt
	n=$$(grep -c 'DETECTED' $(VERIFYDIR)/tamper.txt); \
	if [ "$$n" != 3 ] || grep -q 'protection failed' $(VERIFYDIR)/tamper.txt; then \
		echo "memo-verify-smoke: tamper-detection caught $$n of 3 attacks:"; cat $(VERIFYDIR)/tamper.txt; exit 1; \
	fi
	@rm -rf $(VERIFYDIR)
	@echo memo-verify-smoke OK

# Long-run every fuzz target for FUZZTIME each (go only allows one -fuzz
# pattern per package invocation). Run nightly by
# .github/workflows/nightly-fuzz.yml; set FUZZTIME=5s for a local smoke.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzImportState$$' -fuzztime $(FUZZTIME) ./internal/mee
	$(GO) test -run '^$$' -fuzz '^FuzzReadAfterCorruption$$' -fuzztime $(FUZZTIME) ./internal/mee
	$(GO) test -run '^$$' -fuzz '^FuzzReadInPlaceDifferential$$' -fuzztime $(FUZZTIME) ./internal/mee
	$(GO) test -run '^$$' -fuzz '^FuzzUnpackBootImage$$' -fuzztime $(FUZZTIME) ./internal/ctxstore
	$(GO) test -run '^$$' -fuzz '^FuzzFaultPlan$$' -fuzztime $(FUZZTIME) ./internal/faults
	$(GO) test -run '^$$' -fuzz '^FuzzMemoStoreLoad$$' -fuzztime $(FUZZTIME) ./internal/memostore
	$(GO) test -run '^$$' -fuzz '^FuzzJobSpec$$' -fuzztime $(FUZZTIME) ./internal/fleet
	$(GO) test -run '^$$' -fuzz '^FuzzParseTrace$$' -fuzztime $(FUZZTIME) ./internal/workload
	$(GO) test -run '^$$' -fuzz '^FuzzBundleDecode$$' -fuzztime $(FUZZTIME) ./internal/platform
	$(GO) test -run '^$$' -fuzz '^FuzzOpTableDecode$$' -fuzztime $(FUZZTIME) ./internal/platform

# Record the full benchmark suite (with allocation stats) to a timestamped
# JSON artifact for before/after comparison. Written to a temp file and
# renamed on success, so a failed run cannot leave a half-written artifact.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -json $(PKGS) > BENCH_$(STAMP).json.tmp || { rm -f BENCH_$(STAMP).json.tmp; exit 1; }
	mv BENCH_$(STAMP).json.tmp BENCH_$(STAMP).json
	@echo wrote BENCH_$(STAMP).json

# One iteration of every benchmark: catches bit-rot (compile errors, setup
# panics) without paying for stable timings. Run by CI on every push.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x $(PKGS)

# The committed single-iteration baseline the CI regression gate diffs
# against. It must be recorded at -benchtime 1x like the gate run itself:
# one iteration pays setup and memo-warmup costs that longer runs amortize
# away, so 1x numbers only compare against 1x numbers. GOMAXPROCS is
# pinned for both because the parallel sweep pools size themselves off the
# core count, and with them the allocation counts. Refresh with
# `make bench-baseline-1x` and commit the artifact.
BASELINE_1X ?= BENCH_baseline_1x.json
GATEPROCS   := 4

bench-baseline-1x:
	GOMAXPROCS=$(GATEPROCS) $(GO) test -run '^$$' -bench . -benchmem -benchtime 1x -json $(PKGS) > $(BASELINE_1X).tmp || { rm -f $(BASELINE_1X).tmp; exit 1; }
	mv $(BASELINE_1X).tmp $(BASELINE_1X)
	@echo wrote $(BASELINE_1X)

# CI regression gate: record a one-iteration artifact and diff it against
# the committed 1x baseline. A single iteration is not steady state — its
# timing is mostly jitter and its alloc count includes one-time warmup
# (goroutine stack growth in worker pools, lazy tables) that varies by a
# few allocations run to run — so both gates are tripwires for gross
# regressions, not the contract: time +100% and +100ms (a fast-forward
# engine that stopped engaging), allocs +1% and +8 (a per-cycle or
# per-block allocation leak multiplies across a run's cycles, clearing
# the floor easily). The zero-allocation datapath contract itself is
# enforced by the tight zero-slack default gate of `make benchdiff`
# between two full `make bench` artifacts.
bench-gate:
	GOMAXPROCS=$(GATEPROCS) $(GO) test -run '^$$' -bench . -benchmem -benchtime 1x -json $(PKGS) > BENCH_ci.json.tmp || { rm -f BENCH_ci.json.tmp; exit 1; }
	$(GO) run ./cmd/odrips-benchdiff -ns-tolerance 1.0 -ns-floor 1e8 -allocs-slack 0.01 -allocs-floor 8 $(BENCHDIFF_FLAGS) $(BASELINE_1X) BENCH_ci.json.tmp
	@rm -f BENCH_ci.json.tmp

# Just the heavyweight sweep benchmark, one iteration.
bench-sweep:
	$(GO) test -run '^$$' -bench 'BenchmarkFig6aSweep|BenchmarkSchedulerChurn' -benchmem -benchtime 1x .

# Warm-cache tier: run the one-iteration gate suite twice against the same
# persistent memo store (env-activated, no flag plumbing) — the first run
# populates the store (cold), the second replays from it (warm) — then
# report cold vs warm side by side. Reporting only, never a gate: the
# tolerances are set so it cannot fail, and the markdown form feeds CI job
# summaries (BENCHDIFF_FLAGS=-markdown). At -benchtime 1x the suite is
# fully deterministic, so the warm run replays every persisted memo.
# MEMOKEEP=1 skips the initial wipe so a store restored from a CI cache
# survives — the "cold" run is then already warm, which is the point.
MEMODIR ?= $(CURDIR)/.odrips-memocache
bench-warm:
	$(if $(MEMOKEEP),,rm -rf $(MEMODIR))
	GOMAXPROCS=$(GATEPROCS) ODRIPS_MEMOCACHE=rw ODRIPS_MEMOCACHE_DIR=$(MEMODIR) $(GO) test -run '^$$' -bench . -benchmem -benchtime 1x -json $(PKGS) > BENCH_cold.json.tmp || { rm -f BENCH_cold.json.tmp; exit 1; }
	GOMAXPROCS=$(GATEPROCS) ODRIPS_MEMOCACHE=rw ODRIPS_MEMOCACHE_DIR=$(MEMODIR) $(GO) test -run '^$$' -bench . -benchmem -benchtime 1x -json $(PKGS) > BENCH_warm.json.tmp || { rm -f BENCH_warm.json.tmp BENCH_cold.json.tmp; exit 1; }
	$(GO) run ./cmd/odrips-benchdiff -ns-tolerance 1e9 -ns-floor 1e18 -allocs-slack 1e9 -allocs-floor 1e18 $(BENCHDIFF_FLAGS) BENCH_cold.json.tmp BENCH_warm.json.tmp
	@rm -f BENCH_cold.json.tmp BENCH_warm.json.tmp

# CPU and allocation profiles of a six-hour ODRIPS standby run; inspect
# with `go tool pprof cpu.pprof`. FF=off profiles the full simulation path,
# FF=on (default) profiles the memoized fast-forward path. PROF_PREFIX
# names the artifacts, so before/after pairs can coexist:
#
#	make profile PROF_PREFIX=pre_     # record the baseline
#	<apply the change>
#	make profile PROF_PREFIX=post_
#	go tool pprof -diff_base pre_cpu.pprof post_cpu.pprof
FF ?= on
PROF_PREFIX ?=
profile:
	$(GO) run ./cmd/odrips-sim -config odrips -cycles 720 -fastforward $(FF) -cpuprofile $(PROF_PREFIX)cpu.pprof -memprofile $(PROF_PREFIX)mem.pprof > /dev/null
	@echo wrote $(PROF_PREFIX)cpu.pprof $(PROF_PREFIX)mem.pprof

# Differential profile of the fast-forward engine itself: record the same
# run with the engine off and on, then print the delta (-diff_base), i.e.
# exactly what the memoized path still pays for — the post-memo residue.
profile-diff:
	$(GO) run ./cmd/odrips-sim -config odrips -cycles 720 -fastforward off -cpuprofile ffoff_cpu.pprof -memprofile ffoff_mem.pprof > /dev/null
	$(GO) run ./cmd/odrips-sim -config odrips -cycles 720 -fastforward on -cpuprofile ffon_cpu.pprof -memprofile ffon_mem.pprof > /dev/null
	$(GO) tool pprof -top -nodecount=25 -diff_base ffoff_cpu.pprof ffon_cpu.pprof
	@echo wrote ffoff_cpu.pprof ffon_cpu.pprof ffoff_mem.pprof ffon_mem.pprof
	@echo "inspect: $(GO) tool pprof -diff_base ffoff_cpu.pprof ffon_cpu.pprof"

# Compare two bench artifacts: make benchdiff OLD=BENCH_a.json NEW=BENCH_b.json
# Fails on >10% ns/op growth or any allocs/op growth.
benchdiff:
	$(GO) run ./cmd/odrips-benchdiff $(OLD) $(NEW)

clean:
	rm -f BENCH_*.json BENCH_*.json.tmp *.pprof
	rm -rf .odrips-memocache
