#!/usr/bin/env bash
# PR gate: tier-1 build + full test suite, then the CLI tier (every tool's
# --help and unknown-flag exits, no daemon), then an AddressSanitizer build of
# the checkpoint/trainer suites so the corruption-handling paths (truncated
# files, bit flips, hostile length fields) are exercised under ASan, along
# with the path-pipeline suites (golden pins, hostile flow ids), then a
# UBSan build of the resilience suites so the fault-injection and validation
# paths (injected throws, NaN forwards, malformed traces) are checked for
# undefined behaviour under fault, with the wire codec suites (hostile
# counts, truncations and bit flips through the unchecked record-block
# reader), then a ThreadSanitizer build of the
# serving suites so hot-reload-under-load, the shared result caches, the
# scheduler/socket shutdown paths and the router's scatter and prober
# threads are checked for data races, and finally
# the chaos tier: the supervised-worker suites under ASan (fork + crash +
# watchdog paths) plus a live mini-soak — a real m3d with 4
# supervised workers serving m3_client load-gen while every worker is
# SIGKILLed over and over; every query must answer, the daemon must then
# accept a reload of its own checkpoint, and no zombies may survive
# shutdown. The chaos suites are kept out of the TSan tier on
# purpose: fork() and ThreadSanitizer do not mix. Last, the distributed
# tier: a real m3d_router over three real m3d shards serving load-gen while
# one shard is SIGKILLed mid-load — every query must come back answered
# (ok or degraded, never failed), and the router's stats must show the kill
# landed inside the load (failed dispatches to the victim, retried slots) —
# then the same load with caching on,
# which must also be answered in full and hit the router's query cache;
# the whole fleet must shut down without orphans. Finally the overload tier: a deliberately undersized m3d driven
# at ~4x its capacity with per-query deadlines — every query must resolve
# (answered or shed with a typed status, zero failed, zero silent
# timeouts), the p99 of admitted queries must stay under the deadline, and
# once the burst stops the daemon must recover to shedding nothing.
#
# Usage: tools/check.sh [extra cmake args...]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

echo "== tier-1: build + ctest =="
cmake -B build -S . "$@"
cmake --build build -j"$JOBS"
ctest --test-dir build --output-on-failure -j"$JOBS"

echo "== CLI: every tool's --help and unknown flags, and the deleted --cache-dir =="
# Starts no daemon. Each tool exits 0 on --help, and exits 2 with
# "<tool>: unknown flag" on stderr for an unknown flag, whether or not a
# value follows it. The deleted durable cache's --cache-dir is an unknown
# flag to both daemons.
cli_expect() {
  local want="$1" tool="$2" err got=0
  shift 2
  err="$(./build/tools/"$tool" "$@" 2>&1 > /dev/null)" || got=$?
  if [ "$got" != "$want" ]; then
    echo "cli: $tool $*: exit $got, want $want: ${err%%$'\n'*}" >&2
    exit 1
  fi
  if [ "$want" = 2 ] && ! echo "$err" | grep -q "^$tool: unknown flag"; then
    echo "cli: $tool $*: stderr does not say '$tool: unknown flag': ${err%%$'\n'*}" >&2
    exit 1
  fi
}
for tool in m3_query m3_client m3d m3d_router eval_model train_m3; do
  cli_expect 0 "$tool" --help
  cli_expect 2 "$tool" --no-such-flag
  cli_expect 2 "$tool" --no-such-flag 1
done
for tool in m3d m3d_router; do
  cli_expect 2 "$tool" --cache-dir x
done

echo "== flowSim stage bench: every row runs (~0.5 s) =="
# Keeps the reference-path row (and its results hash) building and running;
# the timings are informational, so only a nonzero exit fails the gate.
build/bench/micro_flowsim_speed 0.01

echo "== ISA gate: no VEX/EVEX code outside the AVX kernel tiers =="
# The binaries must run on any x86-64 CPU. Only the avx2/avx512 kernel
# namespaces, which the dispatcher enters after a CPUID check, may hold a
# VEX or EVEX instruction: a v-prefixed mnemonic or a %ymm, %zmm or %k
# operand. Anywhere else it would fault on a CPU without the extension.
for bin in m3d m3d_router m3_query; do
  objdump -d -C --no-show-raw-insn "build/tools/$bin" | awk -v bin="$bin" '
    /^[0-9a-f]+ <.*>:$/ { fn = substr($0, index($0, "<"))
                          allowed = fn ~ /m3::ml::kernels::avx(2|512)::/; next }
    !allowed && /^ *[0-9a-f]+:/ && ($2 ~ /^v/ || /%[yz]mm|%k[0-7]/) { bad[fn]++ }
    END { for (f in bad) { print bin ": " bad[f] " VEX/EVEX instructions in " f; n++ }
          exit n > 0 }'
done

echo "== ASan: checkpoint/trainer robustness + path pipeline + wire decoder suites =="
# The wire decoders (Wire, OverloadWire, ShardWire) run here because they
# parse hostile bytes off a socket;
# CacheKey because the query key fills its flow chunks through the same
# field lists.
# The path-pipeline suites (decomposition, sampling, scenario wiring,
# reused scenario workspaces, the parking-lot endpoint table, the hasher
# behind the one-pass path key, flowSim, golden pins, hostile flow ids, the
# fat-tree route tables, the one-sort percentile sweep, the percentile and
# feature-row writers, the in-place request-flow build) run here because
# their index arithmetic (per-link and per-path CSR lists, position-indexed
# flows, reused flowSim and scenario workspaces, per-tier link tables,
# per-(hop, bucket) offsets into the reused feature buffers, flows and
# routes rebuilt over a buffer's earlier contents) is exactly where an
# out-of-bounds access would hide. So do the model-answer
# pins and the graph-free inference suites (GoldenModel, ModelInfer): the
# stacked row offsets of the batched forward are another such place.
# SocketServer runs here too, so LeakSanitizer sees the socket helpers (its
# TSan run cannot). ModelRegistry runs here because a served load builds the
# model straight from the parsed checkpoint (ml::CheckpointParams), and its
# suites feed that path truncated, bit-flipped and hostile files.
# So do Eval (results indexed by flow id) and the GoldenPktSim pins.
cmake -B build-asan -S . -DM3_SANITIZE=address "$@"
cmake --build build-asan -j"$JOBS" --target m3_tests
ctest --test-dir build-asan --output-on-failure -j"$JOBS" \
  -R 'CheckpointV2|Checkpoint\.|Resume|Trainer|ThreadPool|Decompose|Sampling|PathTopology|ParkingLot|ScenarioReuse|HasherSplit|FlowSim|PercentileWriter|FeatureWriter|GoldenPipeline|FlowIds|GoldenModel|ModelInfer|SocketServer|ModelRegistry|Wire\.|OverloadWire|ShardWire|CacheKey|FatTree|Aggregate|RequestFlows|Eval\.|GoldenPktSim'

echo "== kernels: SIMD parity suites under ASan+UBSan for every M3_KERNEL =="
# Every dispatchable tier (including forced-but-unavailable values, which
# must fall back gracefully) runs the kernel parity + fused-op + trainer
# determinism suites under both sanitizers: masked tail loads/stores, the
# arena recycling, and the fused backward passes are exactly where an
# out-of-bounds lane or UB would hide. The model-answer pins and the
# batched-inference suites run per tier too (with M3_KERNEL set they check
# only that tier).
cmake -B build-ubsan -S . -DM3_SANITIZE=undefined "$@"
cmake --build build-ubsan -j"$JOBS" --target m3_tests
for kernel_impl in naive avx2 avx512; do
  for san_build in build-asan build-ubsan; do
    echo "--  M3_KERNEL=$kernel_impl ($san_build)"
    M3_KERNEL="$kernel_impl" ctest --test-dir "$san_build" --output-on-failure -j"$JOBS" \
      -R 'Kernels|KernelDispatch|AutogradFused|TensorArena|TensorAlignment|TrainerParallel\.|GoldenModel|ModelInfer'
  done
done

echo "== UBSan: resilience / fault-injection suites =="
# build-ubsan was configured and built by the kernels tier above.
# CacheKey and GoldenPipelineQueryKey run the query key's 128-bit
# multiply and shift code.
ctest --test-dir build-ubsan --output-on-failure -j"$JOBS" \
  -R 'Status|FaultRegistry|Validate|EstimatorResilience|AggregationGuard|CheckpointResilience|TraceIo|Wire\.|ShardWire|CacheKey|GoldenPipelineQueryKey'

echo "== TSan: serving / hot-reload / scheduler suites =="
# ScenarioReuse joins them: the path pipeline builds scenarios into
# thread_local workspaces under a concurrent ParallelFor. ModelInfer
# does too: threads share one model's parameters and keep thread_local
# inference scratch. The Service pattern also covers each service worker
# thread's thread_local request flows. OverloadAdmission drives admission,
# which Query's queue entries share while borrowing the caller's request.
# RouterChaos runs the router's per-dispatch threads, its prober thread and
# the shard atomics; every shard in it is in-process, so nothing forks.
cmake -B build-tsan -S . -DM3_SANITIZE=thread "$@"
cmake --build build-tsan -j"$JOBS" --target m3_tests
ctest --test-dir build-tsan --output-on-failure -j"$JOBS" \
  -R 'Service|SocketServer|ModelRegistry|LruCache|ThreadPool|ScenarioReuse|ModelInfer|OverloadAdmission|RouterChaos'

echo "== chaos: supervised-worker + router fleet suites under ASan =="
ctest --test-dir build-asan --output-on-failure -j"$JOBS" \
  -R 'WorkerPool|Supervisor|ChaosSoak|SocketTimeout|HashRing|ShardWire|ShardExec|RouterChaos'

echo "== chaos: live kill-storm mini-soak (m3d + load-gen vs SIGKILL) =="
cmake --build build -j"$JOBS" --target m3d m3_client train_m3
SOAK_DIR="$(mktemp -d)"
SOAK_SOCK="$SOAK_DIR/m3d.sock"
M3D_PID=""
cleanup_soak() {
  [ -n "$M3D_PID" ] && kill -KILL "$M3D_PID" 2>/dev/null || true
  rm -rf "$SOAK_DIR"
}
trap cleanup_soak EXIT

# A tiny (1-epoch) checkpoint is plenty: the soak tests supervision, not
# accuracy.
./build/tools/train_m3 2 10 1 "$SOAK_DIR/model.ckpt" > /dev/null
./build/tools/m3d --socket "$SOAK_SOCK" --model "$SOAK_DIR/model.ckpt" \
  --workers 4 > "$SOAK_DIR/m3d.log" 2>&1 &
M3D_PID=$!
for _ in $(seq 1 100); do
  ./build/tools/m3_client --socket "$SOAK_SOCK" --ping > /dev/null 2>&1 && break
  sleep 0.2
done

# SIGKILL every worker four times a second while load-gen runs (~30s of
# storm cap; the killer dies with the load).
(
  end=$((SECONDS + 30))
  while [ "$SECONDS" -lt "$end" ]; do
    pkill -KILL -P "$M3D_PID" 2>/dev/null || true
    sleep 0.25
  done
) &
KILLER_PID=$!
./build/tools/m3_client --socket "$SOAK_SOCK" --flows 5000 --paths 20 \
  --no-cache --concurrency 8 --repeat 50 --retries 6
kill "$KILLER_PID" 2>/dev/null || true
wait "$KILLER_PID" 2>/dev/null || true

# The daemon survived the storm, heals the pool, and reports ready again.
for _ in $(seq 1 100); do
  ./build/tools/m3_client --socket "$SOAK_SOCK" --ping > /dev/null 2>&1 && break
  sleep 0.2
done
./build/tools/m3_client --socket "$SOAK_SOCK" --ping
# The storm killed workers, never the model: reloading the same checkpoint
# is accepted and publishes version 2.
./build/tools/m3_client --socket "$SOAK_SOCK" --reload "$SOAK_DIR/model.ckpt"
./build/tools/m3_client --socket "$SOAK_SOCK" --stats | tee "$SOAK_DIR/stats.txt"
if ! grep -Eq '^model_version +2 ' "$SOAK_DIR/stats.txt"; then
  echo "chaos soak: the reload after the storm did not publish model_version 2" >&2
  exit 1
fi

kill -TERM "$M3D_PID"
wait "$M3D_PID"
M3D_PID=""
# Clean shutdown reaps every worker: nothing may still reference the socket
# path (workers share m3d's argv — fork without exec).
if pgrep -f "$SOAK_SOCK" > /dev/null 2>&1; then
  echo "chaos soak: leaked worker processes:" >&2
  pgrep -af "$SOAK_SOCK" >&2
  exit 1
fi

echo "== distributed: router + 3-shard fleet vs shard SIGKILL =="
cmake --build build -j"$JOBS" --target m3d m3d_router m3_client train_m3
DIST_DIR="$(mktemp -d)"
DIST_PIDS=""
cleanup_dist() {
  for p in $DIST_PIDS; do kill -KILL "$p" 2>/dev/null || true; done
  rm -rf "$DIST_DIR"
}
trap 'cleanup_soak; cleanup_dist' EXIT

./build/tools/train_m3 2 10 1 "$DIST_DIR/model.ckpt" > /dev/null
SHARD_PIDS=""
for i in 0 1 2; do
  ./build/tools/m3d --socket "$DIST_DIR/shard$i.sock" \
    --model "$DIST_DIR/model.ckpt" --workers 2 \
    > "$DIST_DIR/shard$i.log" 2>&1 &
  SHARD_PIDS="$SHARD_PIDS $!"
done
DIST_PIDS="$SHARD_PIDS"
for i in 0 1 2; do
  for _ in $(seq 1 100); do
    ./build/tools/m3_client --socket "$DIST_DIR/shard$i.sock" --ping \
      > /dev/null 2>&1 && break
    sleep 0.2
  done
done
./build/tools/m3d_router --listen "$DIST_DIR/router.sock" \
  --shard "$DIST_DIR/shard0.sock" --shard "$DIST_DIR/shard1.sock" \
  --shard "$DIST_DIR/shard2.sock" \
  --health-interval 0.2 \
  > "$DIST_DIR/router.log" 2>&1 &
ROUTER_PID=$!
DIST_PIDS="$DIST_PIDS $ROUTER_PID"
for _ in $(seq 1 100); do
  ./build/tools/m3_client --socket "$DIST_DIR/router.sock" --ping \
    > /dev/null 2>&1 && break
  sleep 0.2
done

router_stats() {
  ./build/tools/m3_client --socket "$DIST_DIR/router.sock" --stats --json
}

# Load-gen through the router; every query must come back answered. $1
# names the leg, the remaining arguments are extra m3_client flags.
dist_load() {
  local leg="$1" json total answered failed
  shift
  json="$(./build/tools/m3_client --socket "$DIST_DIR/router.sock" \
    --flows 4000 --paths 32 --concurrency 4 --retries 6 --json "$@")"
  echo "$json"
  total="$(echo "$json" | sed -E 's/.*"total": ([0-9]+).*/\1/')"
  answered="$(echo "$json" | sed -E 's/.*"answered": ([0-9]+).*/\1/')"
  failed="$(echo "$json" | sed -E 's/.*"failed": ([0-9]+).*/\1/')"
  if [ "$failed" != 0 ] || [ "$total" != "$answered" ]; then
    echo "distributed ($leg): $failed failed, $answered/$total answered" >&2
    exit 1
  fi
}

# The distributed contract: with a shard dying mid-load, every query is
# still answered — rerouted to a replica or flowSim-degraded, never failed.
# The victim is SIGKILLed by its exact pid (never pkill -f here: the
# router's argv contains every shard's socket path) once the router has
# received 20 of the leg's 200 queries, so the kill lands inside the load.
VICTIM_PID="$(echo "$SHARD_PIDS" | awk '{print $2}')"
dist_load shard-kill --no-cache --repeat 50 > "$DIST_DIR/shard-kill.json" &
LOAD_PID=$!
for _ in $(seq 1 1000); do
  received="$(router_stats | sed -E 's/.*"queries_received":([0-9]+).*/\1/')"
  [ "$received" -ge 20 ] && break
  sleep 0.01
done
kill -KILL "$VICTIM_PID"
wait "$LOAD_PID"
cat "$DIST_DIR/shard-kill.json"
# The kill must have hit live traffic: dispatches to the victim failed and
# their slots were retried on a replica.
KILL_STATS="$(router_stats)"
victim_failures="$(echo "$KILL_STATS" | tr '}' '\n' | grep -F 'shard1.sock' |
  sed -E 's/.*"failures":([0-9]+).*/\1/')"
slots_retried="$(echo "$KILL_STATS" | grep -oE '"retries":[0-9]+' |
  awk -F: '{ n += $2 } END { print n + 0 }')"
if [ "${victim_failures:-0}" -eq 0 ] || [ "$slots_retried" -eq 0 ]; then
  echo "distributed (shard-kill): the kill missed the load: victim failures" \
    "${victim_failures:-none}, $slots_retried slots retried: $KILL_STATS" >&2
  exit 1
fi
echo "shard-kill: killed after $received queries; victim failed" \
  "$victim_failures dispatches, $slots_retried slots retried"

# The router stays up and reports fleet health after the loss.
./build/tools/m3_client --socket "$DIST_DIR/router.sock" --ping
./build/tools/m3_client --socket "$DIST_DIR/router.sock" --stats > /dev/null

# Cached leg: the same load with caching on, on the surviving fleet. Exact
# repeats must come from the router's query cache (the scraped key is a
# metric name from serve/metrics.h).
dist_load cached --repeat 25
DIST_STATS="$(./build/tools/m3_client --socket "$DIST_DIR/router.sock" --stats --json)"
dist_hits="$(echo "$DIST_STATS" | sed -E 's/.*"query_cache":\{"hits":([0-9]+).*/\1/')"
if [ "$dist_hits" -eq 0 ]; then
  echo "distributed (cached): no router query-cache hits: $DIST_STATS" >&2
  exit 1
fi

kill -TERM "$ROUTER_PID"
wait "$ROUTER_PID"
for p in $SHARD_PIDS; do
  [ "$p" = "$VICTIM_PID" ] && continue
  kill -TERM "$p" 2>/dev/null || true
done
for p in $SHARD_PIDS; do
  wait "$p" 2>/dev/null || true
done
DIST_PIDS=""
# Nothing may still reference the fleet directory: shard workers share
# m3d's argv (fork without exec), so a leak shows up here.
if pgrep -f "$DIST_DIR" > /dev/null 2>&1; then
  echo "distributed: leaked fleet processes:" >&2
  pgrep -af "$DIST_DIR" >&2
  exit 1
fi

echo "== overload: undersized m3d vs 4x over-capacity deadline load =="
cmake --build build -j"$JOBS" --target m3d m3_client train_m3
OVL_DIR="$(mktemp -d)"
OVL_SOCK="$OVL_DIR/m3d.sock"
OVL_PID=""
cleanup_ovl() {
  [ -n "$OVL_PID" ] && kill -KILL "$OVL_PID" 2>/dev/null || true
  rm -rf "$OVL_DIR"
}
trap 'cleanup_soak; cleanup_dist; cleanup_ovl' EXIT

./build/tools/train_m3 2 10 1 "$OVL_DIR/model.ckpt" > /dev/null
# Deliberately undersized: 2 workers and an 8-deep queue, so the burst
# below overflows the queue and must be shed queue_full.
./build/tools/m3d --socket "$OVL_SOCK" --model "$OVL_DIR/model.ckpt" \
  --workers 2 --queue 8 \
  > "$OVL_DIR/m3d.log" 2>&1 &
OVL_PID=$!
for _ in $(seq 1 100); do
  ./build/tools/m3_client --socket "$OVL_SOCK" --ping > /dev/null 2>&1 && break
  sleep 0.2
done

# ~4x over capacity: 16 concurrent streams against 2 workers + 8 queue
# slots. retries 0 so every shed stays visible instead of being retried
# away; a 10s deadline every admitted query can comfortably make.
OVL_DEADLINE_MS=10000
OVL_JSON="$(./build/tools/m3_client --socket "$OVL_SOCK" \
  --flows 2000 --paths 16 --no-cache --concurrency 16 --repeat 8 \
  --deadline 10 --retries 0 --json)"
echo "$OVL_JSON"
ovl_total="$(echo "$OVL_JSON" | sed -E 's/.*"total": ([0-9]+).*/\1/')"
ovl_answered="$(echo "$OVL_JSON" | sed -E 's/.*"answered": ([0-9]+).*/\1/')"
ovl_shed="$(echo "$OVL_JSON" | sed -E 's/.*"shed": ([0-9]+).*/\1/')"
ovl_failed="$(echo "$OVL_JSON" | sed -E 's/.*"failed": ([0-9]+).*/\1/')"
ovl_p99="$(echo "$OVL_JSON" | sed -E 's/.*"p99_ms": ([0-9.]+).*/\1/')"
# The overload contract: every query resolves with a typed outcome
# (answered + shed = total, zero failed), overload actually sheds instead
# of silently timing out, and admitted queries still meet their deadline.
if [ "$ovl_failed" != 0 ] || [ $((ovl_answered + ovl_shed)) != "$ovl_total" ]; then
  echo "overload: $ovl_failed failed, $ovl_answered answered + $ovl_shed shed != $ovl_total total" >&2
  exit 1
fi
if [ "$ovl_shed" = 0 ]; then
  echo "overload: 4x over-capacity load shed nothing — admission gate inert" >&2
  exit 1
fi
if ! awk -v p99="$ovl_p99" -v lim="$OVL_DEADLINE_MS" 'BEGIN { exit !(p99 < lim) }'; then
  echo "overload: admitted p99 ${ovl_p99}ms breaches the ${OVL_DEADLINE_MS}ms deadline" >&2
  exit 1
fi

# Recovery: once the burst has ended, a polite load sheds nothing.
OVL_CALM="$(./build/tools/m3_client --socket "$OVL_SOCK" \
  --flows 2000 --paths 16 --no-cache --concurrency 1 --repeat 4 \
  --deadline 10 --retries 0 --json)"
echo "$OVL_CALM"
calm_total="$(echo "$OVL_CALM" | sed -E 's/.*"total": ([0-9]+).*/\1/')"
calm_answered="$(echo "$OVL_CALM" | sed -E 's/.*"answered": ([0-9]+).*/\1/')"
calm_shed="$(echo "$OVL_CALM" | sed -E 's/.*"shed": ([0-9]+).*/\1/')"
if [ "$calm_shed" != 0 ] || [ "$calm_total" != "$calm_answered" ]; then
  echo "overload: no recovery after burst: $calm_shed shed, $calm_answered/$calm_total answered" >&2
  exit 1
fi
./build/tools/m3_client --socket "$OVL_SOCK" --stats

kill -TERM "$OVL_PID"
wait "$OVL_PID"
OVL_PID=""
if pgrep -f "$OVL_SOCK" > /dev/null 2>&1; then
  echo "overload: leaked worker processes:" >&2
  pgrep -af "$OVL_SOCK" >&2
  exit 1
fi

echo "== all checks passed =="
