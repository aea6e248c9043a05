.PHONY: all build test bench bench-smoke bench-check serve-smoke perfbench-smoke verify lint fuzz fmt fmt-check clean

all: build

build:
	dune build

test:
	dune runtest

# Formatting: the style is pinned by .ocamlformat; `fmt` rewrites the
# tree in place, `fmt-check` only diffs (the advisory CI job).  Both need
# the pinned ocamlformat binary on PATH.
fmt:
	dune build @fmt --auto-promote

fmt-check:
	dune build @fmt

# Long metamorphic fuzz run (the nightly CI job): random FO+LIN queries
# cross-checking the certified rewriter against the Equiv decision
# procedure and the volume engines against each other.  `dune runtest`
# runs the same properties at the fast default count.
FUZZ_COUNT ?= 2000

fuzz:
	dune build test/test_fuzz.exe
	CQA_FUZZ_COUNT=$(FUZZ_COUNT) ./_build/default/test/test_fuzz.exe

# Full benchmark sweep; rewrites BENCH.json (slow).  BENCH_JSON is pinned
# so an inherited environment value can never make bench and bench-smoke
# race each other onto the same output file.
bench:
	BENCH_SMOKE= BENCH_JSON=BENCH.json dune exec bench/main.exe

# Fraction-of-a-second quota per benchmark: checks every benchmark still
# runs and emits JSON, without disturbing the committed BENCH.json.
bench-smoke:
	BENCH_SMOKE=1 BENCH_JSON=BENCH_smoke.json dune exec bench/main.exe

# Bench-regression gate: the fresh smoke run must cover every benchmark
# key of the committed BENCH.json (fails on dropped/renamed benchmarks,
# warns on new ones until `make bench` regenerates the baseline) and the
# per-key candidate/baseline ratio must stay under the fail threshold.
# BENCH_ratio.txt holds the full per-key table for CI artifact upload.
bench-check: bench-smoke
	dune build bin/bench_check.exe
	./_build/default/bin/bench_check.exe BENCH.json BENCH_smoke.json \
	  --report BENCH_ratio.txt

# Static-analysis gate: the built-in workload corpus and every good_*.cq
# example must analyze without errors; every bad_*.cq example must trip a
# diagnostic under --deny-warnings (each seeds a distinct failure).  The
# binary is built once and invoked directly: `dune exec` per query file
# re-entered the build system a dozen times for no work.
CQA := ./_build/default/bin/cqa.exe

lint:
	dune build bin/cqa.exe
	$(CQA) analyze --corpus --verify-rewrites > /dev/null
	@set -e; for f in examples/queries/good_*.cq; do \
	  echo "lint $$f"; \
	  $(CQA) analyze --file $$f --verify-rewrites > /dev/null; \
	done
	@set -e; for f in examples/queries/bad_*.cq; do \
	  echo "lint $$f (expect diagnostics)"; \
	  if $(CQA) analyze --deny-warnings --file $$f > /dev/null 2>&1; \
	  then echo "FAIL: expected diagnostics in $$f"; exit 1; fi; \
	done
	@set -e; for f in examples/queries/param_*.cq; do \
	  echo "lint $$f"; \
	  $(CQA) analyze --file $$f --verify-rewrites > /dev/null; \
	  $(CQA) plan --file $$f > /dev/null; \
	done
	@echo "lint OK"

# End-to-end service smoke: boot the daemon on a throwaway Unix socket,
# drive a scripted client workload through it (ping, parameterized plan
# compilation, text / parameterized / batched volumes, stats), stop it
# with a shutdown request, then assert the server exited cleanly and its
# --stats=json report actually counted the traffic (serve.req > 0).
# The server's --stats=json report goes to serve_smoke.log, which is
# kept on failure (CI uploads it as an artifact and tails it into the
# job summary) and removed on success.
serve-smoke:
	dune build bin/cqa.exe
	@set -e; \
	sock=/tmp/cqa-serve-smoke.$$$$.sock; out=serve_smoke.log; \
	rm -f $$sock $$out; \
	$(CQA) serve --socket $$sock --stats=json > $$out & srv=$$!; \
	$(CQA) client --socket $$sock --wait 5000 \
	  '{"op":"ping","id":1}' \
	  '{"op":"plan","id":2,"query":"u < y1 /\\ y1 < v /\\ 0 <= y2 /\\ y2 <= y1 /\\ 0 <= y1","params":["u","v"]}' \
	  '{"op":"vol","id":3,"query":"0 <= y1 /\\ y1 <= 1 /\\ 0 <= y2 /\\ y2 <= y1"}' \
	  '{"op":"vol","id":4,"query":"u < y1 /\\ y1 < v /\\ 0 <= y2 /\\ y2 <= y1 /\\ 0 <= y1","params":["u","v"],"args":["0","1"]}' \
	  '{"op":"vol_batch","id":5,"query":"u < y1 /\\ y1 < v /\\ 0 <= y2 /\\ y2 <= y1 /\\ 0 <= y1","params":["u","v"],"bindings":[["0","1"],["1/8","1"]]}' \
	  '{"op":"stats","id":6}' \
	  '{"op":"shutdown","id":7}' \
	  > /dev/null; \
	status=0; wait $$srv || status=$$?; \
	if [ $$status -ne 0 ]; then \
	  echo "serve-smoke: server exited with status $$status"; cat $$out; exit 1; \
	fi; \
	reqs=$$(grep -o '"serve.req":[0-9]*' $$out | head -1 | cut -d: -f2); \
	if [ -z "$$reqs" ] || [ "$$reqs" -eq 0 ]; then \
	  echo "serve-smoke: serve.req missing or zero in server stats"; \
	  cat $$out; exit 1; \
	fi; \
	echo "serve-smoke OK ($$reqs requests served)"; \
	rm -f $$out $$sock

# End-to-end answer checks of the steady benchmark (perfbench/): a short
# traced run of each workload must report every answer correct (cold
# exact recompute, byte-identical serve replay, bit-identical sampler
# estimates) and no failed operation.  About 15 s in all.
PERFBENCH_WORKLOADS := adhoc_exact serve_read approx_sample

perfbench-smoke:
	@set -e; for w in $(PERFBENCH_WORKLOADS); do \
	  out=$$(python3 perfbench/run.py --workload $$w --seed 1 --seconds 2 --trace 1) \
	    || { echo "perfbench-smoke: $$w did not run"; exit 1; }; \
	  res=$$(printf '%s\n' "$$out" | tail -n 1); \
	  if printf '%s\n' "$$res" | python3 -c 'import json, sys; r = json.load(sys.stdin); sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)'; \
	  then echo "perfbench-smoke $$w OK"; \
	  else echo "perfbench-smoke: $$w failed its answer checks: $$res"; exit 1; fi; \
	done

# The tier-1 gate: build, test suite, benchmark smoke run + key-set
# gate, the end-to-end query-service smoke and the end-to-end benchmark's
# answer checks.
verify: build test bench-check serve-smoke perfbench-smoke

clean:
	dune clean
	rm -f BENCH_smoke.json BENCH_ratio.txt serve_smoke.log
