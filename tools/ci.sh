#!/usr/bin/env bash
#===- tools/ci.sh ---------------------------------------------------------===#
#
# Part of the fearless-concurrency reproduction.
#
#===----------------------------------------------------------------------===#
#
# Local CI gate: a regular build + test pass (followed by a benchmark
# smoke run — every bench binary must execute to completion; no perf
# thresholds, that is tools/bench_compare.py's job), a CLI exit-code
# smoke, a fearlessd server smoke (daemon output bit-identical to
# standalone on every example, warm-cache assertion, draining
# shutdown), a seeded chaos smoke (fault injection under supervision, 8
# fixed seeds), a generated-corpus analysis smoke with an
# interprocedural precision gate, a model-checker smoke (the
# erasure-soundness gate: `fearlessc mc --mc-checks=off` over the
# examples and corpus, plus a deadlock fixture whose counterexample
# schedule must replay deterministically), then the same test suite, server
# smoke, and chaos smoke under ThreadSanitizer plus the corpus smoke,
# runtime_test and mc_test under AddressSanitizer. The concurrent
# runtime (ParallelExec, ChannelSet) is the part of this repo most
# likely to rot silently — TSan and chaos keep the "fearless" claim
# honest.
#
# Usage: tools/ci.sh [extra ctest args...]
#
#===----------------------------------------------------------------------===#

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"

run_pass() {
  local name="$1" dir="$2"
  shift 2
  echo "==> [$name] configure"
  cmake -B "$dir" -S "$ROOT" "$@" >/dev/null
  echo "==> [$name] build"
  cmake --build "$dir" -j "$JOBS"
  echo "==> [$name] test"
  (cd "$dir" && ctest --output-on-failure -j "$JOBS" "${CTEST_ARGS[@]}")
}

# Static region-graph analysis over every example program plus the six
# embedded samples. The analyzer must not crash, and a must-connected
# verdict (a provably dead `if disconnected` then-branch) is a bug in the
# example unless the example exists to demonstrate exactly that
# (disconnect_static.fls).
run_analyze() {
  local name="$1" dir="$2"
  local fc="$dir/tools/fearlessc"
  echo "==> [$name] analyze (embedded samples)"
  "$fc" analyze --samples | sed 's/^/    /'
  for f in "$ROOT"/examples/*.fls; do
    echo "==> [$name] analyze $(basename "$f")"
    local out
    out="$("$fc" analyze "$f")"
    sed 's/^/    /' <<<"$out"
    if [[ "$(basename "$f")" != "disconnect_static.fls" ]] &&
       grep -q "is must-connected" <<<"$out"; then
      echo "==> [$name] FAIL: unexpected must-connected verdict in $f" >&2
      exit 1
    fi
  done
}

# Trace smoke: `fearlessc run --trace` must produce JSON that actually
# parses and follows the Chrome trace_event schema (pid/tid/ts/name/ph,
# dur on complete events). The deep validation lives in trace_test; this
# catches exporter rot end to end through the CLI.
run_trace_smoke() {
  local name="$1" dir="$2"
  local fc="$dir/tools/fearlessc" ex="$ROOT/examples/dll_remove.fls"
  echo "==> [$name] trace smoke (fearlessc run --trace)"
  local out="$dir/ci_trace_smoke.json"
  "$fc" run "$ex" main --metrics --trace "$out" >/dev/null
  python3 - "$out" "$name" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
for e in events:
    assert {"name", "ph", "pid", "tid"} <= e.keys(), e
    if e["ph"] != "M":
        assert "ts" in e, e
    if e["ph"] == "X":
        assert "dur" in e, e
print(f"    valid Chrome trace, {len(events)} events")
PYEOF
  # Every command that builds an artifact honours --trace: the compiler
  # lane's stage spans land in the file (an empty trace when tracing is
  # compiled out).
  local cmd
  for cmd in check analyze sig derive dot disasm; do
    local -a argv=("$cmd" "$ex")
    [[ "$cmd" == derive || "$cmd" == dot ]] && argv+=(main)
    "$fc" "${argv[@]}" --trace "$dir/ci_trace_$cmd.json" >/dev/null 2>&1
  done
  python3 - "$name" \
    "$dir"/ci_trace_{check,analyze,sig,derive,dot,disasm}.json <<'PYEOF'
import json, sys
for path in sys.argv[2:]:
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = {e["name"] for e in events if e["ph"] == "X"}
    want = set() if sys.argv[1] == "notrace" else \
        {"pipeline.parse", "pipeline.check", "pipeline.verify"}
    assert bool(events) == bool(want) and want <= spans, (path, spans)
print("    check/analyze/sig/derive/dot/disasm --trace: compiler spans")
PYEOF
}

# CLI exit-code smoke: fearlessc's documented exit codes (0 ok, 2 usage,
# 3 parse, 4 check/verify, 5 runtime fault — docs/OBSERVABILITY.md,
# "Robustness & fault injection") are part of its interface; scripts and
# this gate rely on them staying distinct.
expect_exit() {
  local want="$1" label="$2"
  shift 2
  local got=0
  "$@" >/dev/null 2>&1 || got=$?
  if [[ "$got" != "$want" ]]; then
    echo "==> FAIL: $label: expected exit $want, got $got ($*)" >&2
    exit 1
  fi
  echo "    $label: exit $got"
}

run_cli_smoke() {
  local name="$1" dir="$2"
  local fc="$dir/tools/fearlessc"
  echo "==> [$name] CLI exit-code smoke"
  printf 'struct data { value : int;\n' >"$dir/ci_parse_err.fls"
  cat >"$dir/ci_check_err.fls" <<'EOF'
struct data { value : int; }
struct node { iso payload : data; }

def f(x : node, c : bool) : unit {
  if (c) { send(x) } else { unit }
}
EOF
  expect_exit 0 "success" \
    "$fc" check "$ROOT/examples/dll_remove.fls"
  expect_exit 2 "usage (malformed --faults)" \
    "$fc" run "$ROOT/examples/dll_remove.fls" main --faults 'bogus'
  expect_exit 3 "parse error" "$fc" check "$dir/ci_parse_err.fls"
  expect_exit 4 "check rejection" "$fc" check "$dir/ci_check_err.fls"
  expect_exit 5 "runtime fault" \
    "$fc" run "$ROOT/examples/dll_remove.fls" main \
    --faults 'heap.alloc=nth:3,seed=7'
  # --metrics reports what a run executed; commands that execute nothing
  # reject it instead of ignoring it.
  expect_exit 2 "usage (--metrics on check)" \
    "$fc" check "$ROOT/examples/dll_remove.fls" --metrics
  expect_exit 2 "usage (--metrics on analyze)" \
    "$fc" analyze "$ROOT/examples/dll_remove.fls" --metrics
}

# VM engine smoke: the bytecode VM is the default `run` engine; its
# output must match the interpreter's word for word on every runnable
# example (the deep differential lives in tests/vm_test.cpp — this
# catches engine drift end to end through the CLI), and `disasm` must
# print the chunks and the statically folded `if disconnected` sites.
run_vm_smoke() {
  local name="$1" dir="$2"
  local fc="$dir/tools/fearlessc"
  echo "==> [$name] vm differential + disasm smoke"
  local vm_out interp_out
  for f in "$ROOT/examples/disconnect_static.fls" \
           "$ROOT/examples/dll_remove.fls"; do
    vm_out="$("$fc" run "$f" main)"
    interp_out="$("$fc" run "$f" main --engine interp)"
    if [[ "$vm_out" != "$interp_out" ]]; then
      echo "==> [$name] FAIL: engine divergence on $(basename "$f"):" \
           "vm='$vm_out' interp='$interp_out'" >&2
      exit 1
    fi
    echo "    $(basename "$f"): $vm_out (both engines)"
  done
  "$fc" disasm "$ROOT/examples/dll_remove.fls" | grep -q "chunk main" || {
    echo "==> [$name] FAIL: disasm output missing chunks" >&2
    exit 1
  }
  "$fc" disasm "$ROOT/examples/disconnect_static.fls" |
    grep -q "disconn.elided" || {
    echo "==> [$name] FAIL: disasm did not fold the static sites" >&2
    exit 1
  }
  echo "    disasm: chunks and folded sites present"
}

# Server smoke: start fearlessd, drive check/run/analyze/metrics/shutdown
# through `fearlessc --daemon`, and hold the protocol to its contract
# end to end (docs/SERVER.md): daemon stdout/stderr/exit bit-identical
# to standalone on every example program plus a rejected and an
# unparsable one, under the default options and the ones that change
# what is built or run (both the cold and the warm, cache-hit path), an
# armed FEARLESS_FAULTS plan refused like --faults,
# cache_hits advancing on a repeated request, analyze leaving the cache
# alone, and a draining shutdown that removes the socket. The
# socket-level abuse
# cases (malformed frames, overload) live in tests/server_test.cpp.
run_server_smoke() {
  local name="$1" dir="$2"
  local fc="$dir/tools/fearlessc" fd="$dir/tools/fearlessd"
  local sock="$dir/ci_server.sock"
  echo "==> [$name] server smoke (fearlessd + --daemon equivalence)"
  rm -f "$sock"
  "$fd" --socket "$sock" --workers 2 &
  local fd_pid=$!
  local i
  for i in $(seq 1 200); do [[ -S "$sock" ]] && break; sleep 0.05; done
  if [[ ! -S "$sock" ]]; then
    echo "==> [$name] FAIL: fearlessd never bound $sock" >&2
    kill "$fd_pid" 2>/dev/null || true
    exit 1
  fi

  # Beside the examples: a program the checker rejects and one that does
  # not parse, so the failure paths (and analyze's lint fallback) are
  # held to the same equivalence.
  printf 'struct data { value : int;\n' >"$dir/ci_srv_parse_err.fls"
  local f base cmd s_exit d_exit s_out d_out
  for f in "$ROOT"/examples/*.fls \
           "$ROOT/tests/fixtures/use_after_consumes.fls" \
           "$dir/ci_srv_parse_err.fls"; do
    base="$(basename "$f")"
    # Each command twice through the daemon: the first populates the
    # derivation cache, the second must hit it — and both must be
    # byte-identical to the standalone run (exit code included).
    # Beside the defaults, the options that change what is built or
    # run, so the one request mapping is held to the same equivalence.
    for cmd in "check" "check --stats" "check --no-oracle" \
               "run" "run --workers 1" "run --no-checks" \
               "run --engine interp" "run --seed 3" \
               "analyze" "analyze --json" \
               "analyze --interprocedural=off --json" "analyze --werror"; do
      # shellcheck disable=SC2206
      local -a words=($cmd)
      local -a argv=("${words[0]}" "$f")
      [[ "${words[0]}" == run ]] && argv+=(main)
      argv+=("${words[@]:1}")
      s_exit=0
      s_out="$("$fc" "${argv[@]}" 2>"$dir/ci_srv_s.err")" || s_exit=$?
      local pass
      for pass in cold warm; do
        d_exit=0
        d_out="$("$fc" --daemon "$sock" "${argv[@]}" \
                 2>"$dir/ci_srv_d.err")" || d_exit=$?
        if [[ "$s_exit" != "$d_exit" || "$s_out" != "$d_out" ]] ||
           ! cmp -s "$dir/ci_srv_s.err" "$dir/ci_srv_d.err"; then
          echo "==> [$name] FAIL: daemon/standalone divergence on" \
               "'$cmd $base' ($pass): exit $s_exit vs $d_exit" >&2
          kill "$fd_pid" 2>/dev/null || true
          exit 1
        fi
      done
      echo "    $cmd $base: exit $s_exit, cold == warm == standalone"
    done
  done

  # The daemon cannot inject faults: an armed FEARLESS_FAULTS plan is
  # refused exactly like --faults (exit 2, same message), never silently
  # run fault-free.
  local env_exit=0 flag_exit=0
  FEARLESS_FAULTS="heap.alloc=nth:1" "$fc" --daemon "$sock" run \
    "$ROOT/examples/dll_remove.fls" main >/dev/null \
    2>"$dir/ci_srv_env.err" || env_exit=$?
  "$fc" --daemon "$sock" --faults "heap.alloc=nth:1" run \
    "$ROOT/examples/dll_remove.fls" main >/dev/null \
    2>"$dir/ci_srv_flag.err" || flag_exit=$?
  if [[ "$env_exit" != 2 || "$flag_exit" != 2 ]] ||
     ! cmp -s "$dir/ci_srv_env.err" "$dir/ci_srv_flag.err"; then
    echo "==> [$name] FAIL: FEARLESS_FAULTS under --daemon exited" \
         "$env_exit (--faults: $flag_exit)" >&2
    kill "$fd_pid" 2>/dev/null || true
    exit 1
  fi
  echo "    FEARLESS_FAULTS under --daemon: refused like --faults (exit 2)"

  "$fc" --daemon "$sock" metrics >"$dir/ci_srv_metrics.json"
  # analyze builds fresh, outside the cache: it adds no hit and no miss.
  "$fc" --daemon "$sock" analyze "$ROOT/examples/dll_remove.fls" >/dev/null
  "$fc" --daemon "$sock" metrics >"$dir/ci_srv_metrics2.json"
  python3 - "$dir/ci_srv_metrics.json" "$dir/ci_srv_metrics2.json" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    m = json.load(f)
with open(sys.argv[2]) as f:
    m2 = json.load(f)
assert m["cache_misses"] >= 1, m
assert m["cache_hits"] >= 1, f"warm requests never hit the cache: {m}"
assert m["requests_rejected"] == 0, m
assert m2["cache_hits"] == m["cache_hits"], (m, m2)
assert m2["cache_misses"] == m["cache_misses"], (m, m2)
print(f"    metrics: cache_hits={m['cache_hits']} "
      f"cache_misses={m['cache_misses']} (warm path exercised; "
      f"analyze left the cache alone)")
PYEOF

  "$fc" --daemon "$sock" shutdown >/dev/null
  wait "$fd_pid" || {
    echo "==> [$name] FAIL: fearlessd exited nonzero after shutdown" >&2
    exit 1
  }
  if [[ -e "$sock" ]]; then
    echo "==> [$name] FAIL: socket not removed by draining shutdown" >&2
    exit 1
  fi
  echo "    shutdown: drained, exit 0, socket removed"
}

# Generated-corpus smoke: tools/gen_corpus.py emits a deterministic
# multi-function program per (seed, shape); `analyze --json` must accept
# it in both modes, and the precision gate holds: the interprocedural
# must-* count is never below the intra count on any shape, and strictly
# above it on the shapes built around cross-call disconnect proofs
# (chain, cross) — the whole point of the summary engine.
run_corpus_smoke() {
  local name="$1" dir="$2"
  local fc="$dir/tools/fearlessc"
  for seed in 7 21 42; do
    for shape in chain diamond scc cross mixed; do
      local src="$dir/ci_corpus_${shape}_${seed}.fls"
      python3 "$ROOT/tools/gen_corpus.py" \
        --seed "$seed" --functions 60 --shape "$shape" --out "$src"
      echo "==> [$name] corpus smoke ($shape, seed $seed)"
      "$fc" analyze --json "$src" >"$src.inter.json"
      "$fc" analyze --json --interprocedural=off "$src" >"$src.intra.json"
      python3 - "$shape" "$src.inter.json" "$src.intra.json" <<'PYEOF'
import json, sys
shape = sys.argv[1]
def musts(path):
    with open(path) as f:
        doc = json.load(f)
    assert doc["schema"] == "fearless-analysis-v1", doc.get("schema")
    assert doc["checked"] and not doc["hard_error"], path
    v = doc["verdicts"]
    return v.get("must_disconnected", 0) + v.get("must_connected", 0)
inter, intra = musts(sys.argv[2]), musts(sys.argv[3])
assert inter >= intra, f"{shape}: inter {inter} < intra {intra}"
if shape in ("chain", "cross"):
    assert inter > intra, \
        f"{shape}: interprocedural won nothing ({inter} vs {intra})"
print(f"    must-* verdicts: interprocedural={inter} intra={intra}")
PYEOF
    done
  done
}

# Model-checker smoke: the erasure-soundness gate (docs/MODELCHECK.md).
# `fearlessc mc` explores the bounded schedule space of every checkable
# example and three generated corpus programs with the dynamic
# reservation checks ERASED (--mc-checks=off) while the §6 invariant
# validators machine-check every small step — zero violations expected
# in both modes (the per-run confluence check covers cross-schedule
# result agreement), and the program *results* must be identical with
# checks on and off (`run` vs `run --no-checks`; the mc step counts
# legitimately differ, since erasing check instructions changes VM
# batch boundaries). Then the seeded deadlock fixture must produce exit
# 7 plus a counterexample schedule that `run --schedule` replays to the
# same failure twice, byte for byte.
run_mc_smoke() {
  local name="$1" dir="$2"
  local fc="$dir/tools/fearlessc"
  echo "==> [$name] model-checker smoke (erasure-soundness gate)"
  local f base on_out off_out run_on run_off
  mc_gate() {
    local src="$1" label="$2"
    on_out="$("$fc" mc "$src" main --mc-depth 20000)"
    off_out="$("$fc" mc "$src" main --mc-depth 20000 --mc-checks=off)"
    if ! grep -q "no violations" <<<"$on_out" ||
       ! grep -q "no violations" <<<"$off_out"; then
      echo "==> [$name] FAIL: mc found a violation on $label:" \
           "'$on_out' / '$off_out'" >&2
      exit 1
    fi
    run_on="$("$fc" run "$src" main)"
    run_off="$("$fc" run "$src" main --no-checks)"
    if [[ "$run_on" != "$run_off" ]]; then
      echo "==> [$name] FAIL: result changed with checks erased on" \
           "$label: '$run_on' vs '$run_off'" >&2
      exit 1
    fi
    echo "    $label: $(head -1 <<<"$off_out" | sed 's/^mc: //')" \
         "(checks erased, results identical)"
  }
  for f in "$ROOT"/examples/*.fls; do
    base="$(basename "$f")"
    # Check-failure demonstration examples cannot be model-checked.
    "$fc" check "$f" >/dev/null 2>&1 || {
      echo "    $base: skipped (not checkable by design)"; continue; }
    mc_gate "$f" "$base"
  done
  for seed in 7 21 42; do
    local src="$dir/ci_mc_corpus_$seed.fls"
    python3 "$ROOT/tools/gen_corpus.py" \
      --seed "$seed" --functions 24 --shape mixed --out "$src"
    mc_gate "$src" "corpus seed $seed"
  done

  # The two-thread pipeline explores a genuinely branching space clean.
  "$fc" mc "$ROOT/examples/msg_pipeline.fls" consumer 2 \
    --spawn producer:2 >/dev/null
  echo "    msg_pipeline consumer/producer: branching space verified"

  # Seeded deadlock fixture: exit 7 + a deterministically replayable
  # counterexample schedule.
  local sched="$dir/ci_mc_deadlock.sched"
  expect_exit 7 "mc counterexample (deadlock fixture)" \
    "$fc" mc "$ROOT/examples/msg_pipeline.fls" consumer 1 \
    --mc-out "$sched"
  [[ -f "$sched" ]] || {
    echo "==> [$name] FAIL: mc did not write $sched" >&2; exit 1; }
  local r1_exit=0 r2_exit=0
  "$fc" run "$ROOT/examples/msg_pipeline.fls" consumer 1 \
    --schedule "$sched" >"$dir/ci_mc_r1.out" 2>&1 || r1_exit=$?
  "$fc" run "$ROOT/examples/msg_pipeline.fls" consumer 1 \
    --schedule "$sched" >"$dir/ci_mc_r2.out" 2>&1 || r2_exit=$?
  if [[ "$r1_exit" == 0 || "$r1_exit" != "$r2_exit" ]] ||
     ! cmp -s "$dir/ci_mc_r1.out" "$dir/ci_mc_r2.out"; then
    echo "==> [$name] FAIL: counterexample replay not deterministic" \
         "(exits $r1_exit/$r2_exit)" >&2
    exit 1
  fi
  echo "    deadlock fixture: exit 7, replay deterministic (exit $r1_exit twice)"
}

# Scheduler smoke: bench_scheduler's FEARLESS_SCHED_SMOKE hook runs the
# 100,000-language-thread token ring to completion on the fixed default
# worker pool and checks the ping-pong park/unpark path allocates nothing
# in steady state. Running it under the TSan pass as well stresses the
# work-stealing + parking protocol with real data-race detection at full
# acceptance scale.
run_sched_smoke() {
  local name="$1" dir="$2"
  echo "==> [$name] scheduler smoke (100k-task ring + allocs_per_iter=0)"
  FEARLESS_SCHED_SMOKE=100000 \
    "$dir/bench/bench_scheduler" --benchmark_filter=NONE 2>&1 |
    grep -v "Failed to match any benchmarks" |
    sed 's/^/    /'
}

# Chaos smoke: bench_concurrency's FEARLESS_FAULTS hook runs the E7
# pipeline under a seeded fault plan with supervision on, and fails if
# the run hangs (watchdog), crashes, or a recovered run diverges from
# the fault-free baseline. Fixed seeds keep failures reproducible.
run_chaos_smoke() {
  local name="$1" dir="$2"
  local spec
  for seed in 1 2 3 4 5 6 7 8; do
    # Odd seeds inject only start-time (restartable) faults, exercising
    # the recover-and-match-baseline path; even seeds add mid-run faults
    # that exercise escalation and clean abort.
    if ((seed % 2)); then
      spec="thread.start=prob:0.4,seed=$seed"
    else
      spec="thread.start=prob:0.3,sched.step=nth:$((seed * 9)),heap.alloc=prob:0.01,seed=$seed"
    fi
    echo "==> [$name] chaos smoke (seed $seed: $spec)"
    FEARLESS_FAULTS="$spec" \
      "$dir/bench/bench_concurrency" --benchmark_filter=NONE 2>&1 |
      sed 's/^/    /'
  done
}

CTEST_ARGS=("$@")

echo "==> [tools] bench_compare self-test"
python3 "$ROOT/tools/bench_compare.py" --self-test
echo "==> [tools] check_docs (doc drift gate)"
python3 "$ROOT/tools/check_docs.py" --self-test
python3 "$ROOT/tools/check_docs.py"

run_pass "default" "$ROOT/build"
run_analyze "default" "$ROOT/build"
run_trace_smoke "default" "$ROOT/build"
run_cli_smoke "default" "$ROOT/build"
run_vm_smoke "default" "$ROOT/build"
run_server_smoke "default" "$ROOT/build"
run_corpus_smoke "default" "$ROOT/build"
run_mc_smoke "default" "$ROOT/build"
run_sched_smoke "default" "$ROOT/build"
run_chaos_smoke "default" "$ROOT/build"
echo "==> [default] bench smoke"
"$ROOT/tools/bench.sh" --smoke -B "$ROOT/build"
run_pass "tsan" "$ROOT/build-tsan" -DFEARLESS_SANITIZE=thread
run_analyze "tsan" "$ROOT/build-tsan"
run_vm_smoke "tsan" "$ROOT/build-tsan"
run_server_smoke "tsan" "$ROOT/build-tsan"
run_sched_smoke "tsan" "$ROOT/build-tsan"
run_chaos_smoke "tsan" "$ROOT/build-tsan"

# ASan pass over the analysis front end and the heap's object lifetime:
# the summary engine and the corpus generator push the analyzer over
# thousands of functions, and the heap constructs objects in raw block
# storage, destroys only what it allocated, and is rewound by every mc
# checkpoint restore. AddressSanitizer on the corpus smoke, runtime_test
# (heaps across block boundaries, snapshot/restore) and mc_test
# (checkpointed exploration) catches lifetime bugs the default pass
# would miss. The checker's use-set cache hands out references into
# storage it recycles between functions, and the summary engine writes
# reports through indices into a caller's vector: checker_test,
# parser_test (the function index) and analysis_test cover those. The
# typing contexts are flat sorted vectors whose storage moves on every
# insert, and a derivation links steps by index into tables that grow
# and are truncated: regions_test, virtual_test, unify_test and
# verifier_test drive those directly.
echo "==> [asan] configure + build (FEARLESS_SANITIZE=address)"
cmake -B "$ROOT/build-asan" -S "$ROOT" -DFEARLESS_SANITIZE=address >/dev/null
ASAN_TESTS="runtime_test mc_test checker_test parser_test analysis_test
  regions_test virtual_test unify_test verifier_test"
cmake --build "$ROOT/build-asan" -j "$JOBS" --target fearlessc $ASAN_TESTS
run_corpus_smoke "asan" "$ROOT/build-asan"
for t in $ASAN_TESTS; do
  echo "==> [asan] $t"
  "$ROOT/build-asan/tests/$t"
done

# Compile-out pass: the tracing layer must build with FEARLESS_TRACE=OFF
# (stub API) and the trace suite must still pass (it guards its
# event-presence expectations on FEARLESS_TRACING_ENABLED). The CLI must
# still emit a valid — empty — trace.
echo "==> [notrace] configure + build (FEARLESS_TRACE=OFF)"
cmake -B "$ROOT/build-notrace" -S "$ROOT" -DFEARLESS_TRACE=OFF >/dev/null
cmake --build "$ROOT/build-notrace" -j "$JOBS" \
  --target trace_test fearlessc
echo "==> [notrace] trace_test"
"$ROOT/build-notrace/tests/trace_test"
run_trace_smoke "notrace" "$ROOT/build-notrace"

echo "==> all passes green"
