# Convenience targets for the sdiq reproduction.

DOMAINS ?= 4
BENCH   := _build/default/bench/main.exe
FUZZ_N  ?= 500

.PHONY: all build test lint tighten-audit campaign fuzz check-campaign trace profile policy-grid telemetry

all: build lint

build:
	dune build

test:
	dune runtest

# Static audit: the dataflow lints, the annotation-soundness pass and
# the delivery-integrity check over every built-in benchmark under all
# four annotation modes, with the findings archived as JSON. Exit 2 on
# errors, 1 on warnings or stale waivers, 0 when clean.
lint:
	dune build bin/lint.exe
	dune exec bin/lint.exe -- --json _build/lint-findings.json

# Tightening gate: re-derive every region's minimal sound window,
# deliver it, re-audit with the trip-count-refined soundness pass plus
# the wrong-path lints, and build the occupancy/energy certificate.
# Non-zero exit on any error finding. Also wired into `dune runtest`
# via the tighten-audit alias.
tighten-audit:
	dune build @tighten-audit

# Produce a JSONL event trace of one run and audit it with the lint
# CLI's delivery-integrity pass: every traced annotation delivery must
# name a real annotation site in the statically prepared binary with
# the value the compiler placed there, commits must retire in program
# order, and the cycle structure must be well-formed.
TRACE_BENCH ?= gzip
TRACE_MODE  ?= noop
trace:
	dune build bin/simulate.exe bin/lint.exe
	dune exec bin/simulate.exe -- --bench $(TRACE_BENCH) \
	  --technique $(TRACE_MODE) --budget 20000 \
	  --trace _build/$(TRACE_BENCH)-$(TRACE_MODE).jsonl | tail -1
	dune exec bin/lint.exe -- --bench $(TRACE_BENCH) -m $(TRACE_MODE) \
	  --trace _build/$(TRACE_BENCH)-$(TRACE_MODE).jsonl

# Region-attribution profile of two benchmarks as one JSON document,
# then validate its shape: the document must carry the per-pair region
# tables, the streaming-metrics registries and the campaign-wide merge.
profile:
	dune build bin/profile.exe
	dune exec bin/profile.exe -- --bench gzip,mcf --technique noop \
	  --budget 20000 --json > _build/profile-metrics.json
	@for key in '"pairs"' '"regions"' '"profile"' '"slack"' '"metrics"' \
	  '"campaign_metrics"'; do \
	  grep -q $$key _build/profile-metrics.json \
	    || { echo "profile: missing $$key in metrics JSON" >&2; exit 1; }; \
	done
	@echo "profile: _build/profile-metrics.json validated"

# Smoke-check the parallel campaign: every figure bench/main.exe derives
# from the simulation table must be byte-identical on 1 domain and on
# $(DOMAINS) domains. Only the figures (fig6..fig12) are diffed — the
# campaign timing line and table2's measured compile times legitimately
# vary between any two runs, parallel or not.
campaign:
	dune build bench/main.exe bin/report.exe
	@$(BENCH) --quick --domains 1 | sed -n '/^== fig/,$$p' > _build/campaign-1.out
	@$(BENCH) --quick --domains $(DOMAINS) | sed -n '/^== fig/,$$p' > _build/campaign-n.out
	@diff _build/campaign-1.out _build/campaign-n.out \
	  && echo "campaign: figures identical on 1 vs $(DOMAINS) domains"
	@# Sampled campaign: the scaled suite under SMARTS sampling; report.exe
	@# exits non-zero unless every (benchmark x technique) pair covers at
	@# least ten million instructions over at least 30 measured windows.
	@dune exec bin/report.exe -- --sample > _build/campaign-sampled.out
	@tail -1 _build/campaign-sampled.out
	@# Archive the MIPS probe at the repo root so the telemetry gate has a
	@# committed baseline to diff against (see `make telemetry`).
	@$(BENCH) --mips-json BENCH_mips.json | tail -1

# One full telemetry pass: a traced report campaign appending to the
# run ledger, an OpenMetrics scrape of a profiled run, a MIPS probe
# recorded into the same ledger, with the regression gate run after
# each append (the gate evaluates the newest record, so the report's
# deterministic energy totals and the probe's host-scoped MIPS are
# each gated in turn; >10% MIPS drop or any energy drift fails). The
# trace loads in Perfetto / chrome://tracing; check the exposition
# with `promtool check metrics < $(TELEM)/metrics.om`.
#
# TELEM defaults to the committed ledger directory; CI points it at an
# untracked copy so runs never dirty the checkout (mips records are
# host-scoped anyway and would only seed there — see lib/obs/ledger.mli).
TELEM ?= telemetry
telemetry:
	dune build bin/report.exe bin/simulate.exe bin/benchdiff.exe bench/main.exe
	dune exec bin/report.exe -- --budget 20000 --only fig6 \
	  --ledger $(TELEM)/ledger.jsonl --trace-spans $(TELEM)/spans.json \
	  | tail -3
	dune exec bin/simulate.exe -- --bench gzip --technique noop \
	  --budget 20000 --metrics $(TELEM)/metrics.om | tail -1
	dune exec bin/benchdiff.exe -- --ledger $(TELEM)/ledger.jsonl --check-schema
	dune exec bin/benchdiff.exe -- --ledger $(TELEM)/ledger.jsonl
	dune exec bench/main.exe -- --mips-json _build/mips.json \
	  --ledger $(TELEM)/ledger.jsonl | tail -2
	dune exec bin/benchdiff.exe -- --ledger $(TELEM)/ledger.jsonl

# Scheduler-policy grid: every benchmark x {noop, improved} x
# {oldest_first, nskip:4, load_delay}, with both policy gates enforced
# (load_delay must be cycle- and commit-identical to oldest_first;
# nskip:4 must cut scan energy on at least three benchmarks) and the
# per-cell scan-power figures archived as JSON.
policy-grid:
	dune build bin/report.exe
	dune exec bin/report.exe -- --budget 20000 \
	  --policy-grid _build/policy-grid.json

# Differential fuzzing, five lanes over the same FUZZ_N random
# programs: (1) oracle vs pipeline under every technique with the
# invariant checker installed (speculative fetch on — the default);
# (2) the same seeds through SMARTS sampling, checker auditing every
# detailed window; (3) each program run with speculation on and off,
# asserting the committed trace and final architectural state are
# identical — wrong-path execution must be architecturally invisible;
# (4) the tightened configuration on each program, asserting it
# re-audits clean and commits identically to the baseline binary;
# (5) each program under every technique and scheduler with no sink
# (quiet cycles skipped) and with a null sink (every cycle stepped),
# asserting equal statistics, final cycle and committed stream.
# Reproducible: a failure prints its seed; replay one program with
#   FUZZ_SEED=<seed> FUZZ_N=1 dune exec test/fuzz_main.exe
fuzz:
	dune build test/fuzz_main.exe
	FUZZ_N=$(FUZZ_N) FUZZ_SEED=$(or $(FUZZ_SEED),1) \
	  dune exec test/fuzz_main.exe

# The full (benchmark x technique) campaign with the cycle-level
# invariant checker auditing every run on every domain.
check-campaign:
	dune build bin/simulate.exe
	@for b in gzip vpr mcf; do \
	  for t in baseline noop extension improved abella; do \
	    dune exec bin/simulate.exe -- --bench $$b --technique $$t \
	      --budget 20000 --check | head -1; \
	  done; \
	done
	@echo "check-campaign: all pairs audited cycle-by-cycle"
