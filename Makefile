.PHONY: build test check doc bench bench-smoke nxbench-check smoke chaos clean

build:
	dune build @all

test:
	dune runtest

# API reference via odoc; skipped with a notice when odoc is not
# installed (the docs are .mli comments either way)
doc:
	@if dune build @doc 2>/dev/null; then \
	  echo "docs: _build/default/_doc/_html/index.html"; \
	else \
	  echo "doc: odoc not installed, skipping (opam install odoc)"; \
	fi

# the tier-1 gate: everything compiles (including examples, bench and
# the nxbench benchmark, which builds only under its own profile),
# every test — unit, property, cram, bench smoke — passes, the bench
# gates hold, and the odoc pages build when odoc is available
check:
	dune build @all
	dune build --root . --profile nxbench --build-dir _build_nxbench ./nxbench/main.exe
	dune runtest
	$(MAKE) bench-smoke
	$(MAKE) doc

# extended chaos sweep: the dune test runs ~250 adversarial cases,
# this cranks it up; override CHAOS_RUNS/CHAOS_SEED as needed
chaos:
	CHAOS_RUNS=$${CHAOS_RUNS:-5000} dune exec test/chaos/chaos.exe

# full experiment sweep; writes BENCH_results.json
bench:
	dune exec bench/main.exe

# small-N perf-regression pass on a 2-job pool: each experiment enforces
# its own gates (identical:true holds at --jobs 2, the bit-sliced lattice
# and BIST kernels keep their >= 4x margins over the scalar paths, E6
# stays under its 8s floor, LOADGEN keeps its warm hit rate, finite
# quantiles and memo gate, E1's covers stay exact, E17's repair
# dominates blind BISM, and E18 proves the SAT backends agree with bnb
# and rescue chips hybrid BISM missed) and the run exits 1 on the first
# failed gate; the gate table lives in docs/PERFORMANCE.md
bench-smoke:
	BENCH_OUT=bench_smoke.json dune exec bench/main.exe -- --jobs 2 BITSLICE BISTSLICE E6 PAR LOADGEN E17 E1 E11 E18

# nxbench correctness check: one short traced run per workload; the
# run replays its trace through the engine and the last output line
# must report "correct": true (an envelope or cache-traffic mismatch
# between the engine and nxbench's replay fails it)
NXBENCH_WORKLOADS = npn_hot synth_cold fault_flow

nxbench-check:
	@for w in $(NXBENCH_WORKLOADS); do \
	  out=$$(python3 nxbench/run.py --workload $$w --seed 1 --seconds 1 --trace 1) \
	    || { echo "nxbench-check: $$w: run failed"; exit 1; }; \
	  last=$$(printf '%s\n' "$$out" | tail -n 1); \
	  printf '%s\n' "$$last" | python3 -c 'import json, sys; sys.exit(0 if json.loads(sys.stdin.read()).get("correct") is True else 1)' \
	    || { echo "nxbench-check: $$w: not correct: $$last"; exit 1; }; \
	  echo "nxbench-check: $$w: correct"; \
	done

# quick end-to-end exercise of the observability surface
smoke:
	dune exec bench/main.exe -- E1
	dune exec bin/nanoxcomp.exe -- flow "x1x2 + x1'x2'" \
	  --trace=trace.json --trace-format=chrome --metrics
	dune exec bin/nanoxcomp.exe -- stats "x1 ^ x2" --seed 3

clean:
	dune clean
	rm -rf _build_nxbench
	rm -f trace.json .nxc-cache results.jsonl bench_smoke.json \
	  flight.jsonl events.jsonl
