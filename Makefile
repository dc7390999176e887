.PHONY: all build test test-faults test-obs test-net test-exec test-engine test-gen test-project test-sched test-view test-wire-bin fuzz-smoke check-one-report bench bench-e9-smoke bench-e11-smoke bench-e12-smoke bench-e13-smoke bench-e14-smoke examples doc clean trace-demo serve-demo

all: build

build:
	dune build @all

test:
	dune runtest --force

test-faults:
	dune exec test/test_faults.exe

test-obs:
	dune exec test/test_obs.exe

# loopback client/server integration tests: wire codec, handshake,
# remote invocation with pooling, degradation when the peer dies, and
# the city-guide E2E (identical answers, fewer wire calls, push bytes)
test-net:
	dune exec test/test_net.exe

# worker-pool tests: map_batch semantics plus the differential check
# that pooled evaluation is byte-identical to sequential
test-exec:
	dune exec test/test_exec.exe

# unified-engine tests: pre-refactor fixture differential (both
# strategies, jobs 1 and 4), report/metrics/trace reconciliation,
# single-flight memoization, remote evaluation
test-engine:
	dune exec test/test_engine.exe

# shared-generator suites (test/gen.ml): adversary determinism, family
# shapes, the Def. 4 oracle on hostile instances, a small end-to-end
# fuzz run, and the wire garbage-rejection properties
test-gen:
	dune exec test/test_fuzz.exe
	dune exec test/test_net.exe

# type-based projection tests: keep/drop units, the projected ≡ full
# snapshot-answer property on schema-conforming instances, adversary
# and city differentials under faults, and the wire capability
# negotiation round-trip against an old (no-caps) peer
test-project:
	dune exec test/test_project.exe

# binary wire codec tests: randomized round-trips (trees with
# whitespace-only leaves, patterns modulo pids, every envelope), one
# golden frame per envelope pinning the byte layout, the 64 MiB
# max_frame rejection path, a server answering an unflagged (JSON-era)
# Hello with an error and a close, and capability negotiation
# end-to-end against full and pre-capability peers
test-wire-bin:
	dune exec test/test_net.exe -- test wire-binary

# distributed-scheduler tests: the sharded/replicated ≡ single-registry
# differential (answers, report, fault fates) at jobs 1 and 4,
# report/metrics/trace reconciliation through the scheduler, budget
# exhaustion, adaptive-vs-round-robin placement, and the mid-run
# replica-death failover
test-sched:
	dune exec test/test_sched.exe

# snapshot-view tests: index round-trips and invariants on random
# trees, incremental splice patching ≡ full rebuild across randomized
# splice sequences (empty forests included), the parallel ≡ sequential
# matching property, and F-guide memoization on the generation counter
test-view:
	dune exec test/test_view.exe

# the model-based differential fuzzer at a fixed seed: ~200 iterations
# of the full oracle battery over adversarial instances; exits nonzero
# on the first violation, printing the shrunk case and its replay seed
fuzz-smoke:
	dune exec bin/axml.exe -- fuzz --seed 7 --iters 200

# the unified report may not silently re-fork: downstream layers must
# not reach into evaluator-specific report records, only the engine
# may define report_to_json, and only the engine may bump an eval.*
# metric (the eval.detect_seconds histogram is observed, not bumped)
check-one-report:
	@! grep -rn '\.Naive\.\|\.Lazy_eval\.' bin bench lib/net --include='*.ml' \
	  || { echo 'direct evaluator report field access outside lib/core'; exit 1; }
	@test "$$(grep -rln 'let report_to_json' lib bin bench)" = "lib/engine/engine.ml" \
	  || { echo 'report_to_json defined outside lib/engine'; exit 1; }
	@! grep -rn '"full_nodes"\|"projected_nodes"\|"projected_bytes_saved"' bin bench lib/net lib/core --include='*.ml' \
	  || { echo 'projection report fields serialized outside lib/engine'; exit 1; }
	@! grep -rn '"sharded_calls"\|"rebalanced_calls"\|"rerouted_calls"' bin bench lib/net lib/core lib/sched --include='*.ml' \
	  || { echo 'routing report fields serialized outside lib/engine'; exit 1; }
	@! grep -rn '"view_rebuild_nodes"\|"parallel_match_batches"' bin bench lib/net lib/core lib/sched --include='*.ml' \
	  || { echo 'view report fields serialized outside lib/engine'; exit 1; }
	@! grep -rlPz 'Metrics\.(incr|add|set)\b[^;]*?"eval\.' lib bin bench --include='*.ml' --exclude-dir=engine \
	  || { echo 'eval.* metric bumped outside lib/engine'; exit 1; }

# record a traced + measured run, then pretty-print the span tree;
# load /tmp/axml-demo.trace.json in chrome://tracing or ui.perfetto.dev
trace-demo:
	dune exec bin/axml.exe -- run --workload city \
	  --trace /tmp/axml-demo.trace.json \
	  --metrics /tmp/axml-demo.metrics.json \
	  --report-json /tmp/axml-demo.report.json
	dune exec bin/axml.exe -- trace /tmp/axml-demo.trace.json

# serve the weather spec on one terminal; evaluate against it from a
# second with:
#   ./_build/default/bin/axml.exe eval -d examples/data/weather.xml \
#     --connect 127.0.0.1:7342 --xml '/weather/tomorrow/sky!'
# (run the built binary, not `dune exec`, which would block on the
# build lock the serving side still holds)
serve-demo:
	dune build bin/axml.exe
	./_build/default/bin/axml.exe serve --services examples/data/weather.services.xml

bench:
	dune exec bench/main.exe

# the CI-sized E9: two loopback peers with injected latency, asserting
# that --jobs 4 beats --jobs 1 on the wall clock with identical answers
bench-e9-smoke:
	dune exec bench/main.exe -- e9smoke

# the CI-sized E11: skewed fan-out with and without the projector,
# asserting bytes were saved in-document and on the wire with
# byte-identical answers
bench-e11-smoke:
	dune exec bench/main.exe -- e11smoke

# the CI-sized E12: two loopback replicas with 5x skewed injected
# latency, asserting that adaptive placement beats static round-robin
# AND beats a single replica on the wall clock, with answers and
# invocation counts identical to the unsharded run
bench-e12-smoke:
	dune exec bench/main.exe -- e12smoke

# the CI-sized E13: one event-loop server, 64 raw concurrent
# connections on the city workload at 2 and 8 client threads,
# asserting every reply equals an in-process Registry.invoke of the
# same request (an oracle that never goes through the codec)
bench-e13-smoke:
	dune exec bench/main.exe -- e13smoke

# the CI-sized E14: a ~20k-node skewed document swept at --match-jobs
# 1 and 4, always asserting byte-identical answers and counters; the
# wall-clock speedup assertion additionally runs when the machine has
# at least two cores
bench-e14-smoke:
	dune exec bench/main.exe -- e14smoke

examples:
	dune exec examples/quickstart.exe
	dune exec examples/cityguide.exe
	dune exec examples/goingout.exe
	dune exec examples/pushdemo.exe
	dune exec examples/tooling.exe

doc:
	# requires odoc (opam install odoc)
	dune build @doc

clean:
	dune clean
