#!/usr/bin/env bash
# End-to-end smoke test for the rescq CLI, run by CTest.
#
# Usage: cli_smoke_test.sh <path-to-rescq-binary> <repo-source-dir>
#
# Covers every subcommand: classify and explain on one PTIME and one
# NP-complete catalog query, the full catalog self-check, a resilience
# computation over the Section 2 example database, and the incremental
# stream pipeline (churn generation, update-file round trip, golden
# table output), and every usage error's message and exit status
# (tests/golden/cli_errors.golden).
set -u

RESCQ="${1:?usage: cli_smoke_test.sh <rescq-binary> <source-dir>}"
SRC="${2:?usage: cli_smoke_test.sh <rescq-binary> <source-dir>}"

failures=0

# expect <description> <needle> <argv...>: the command must exit 0 and
# print a line containing the needle.
expect() {
  local desc="$1" needle="$2"
  shift 2
  local out
  if ! out="$("$RESCQ" "$@" 2>&1)"; then
    echo "FAIL: $desc: '$RESCQ $*' exited non-zero"
    echo "$out" | sed 's/^/    /'
    failures=$((failures + 1))
    return
  fi
  if ! grep -qF "$needle" <<<"$out"; then
    echo "FAIL: $desc: output of '$RESCQ $*' lacks '$needle'"
    echo "$out" | sed 's/^/    /'
    failures=$((failures + 1))
    return
  fi
  echo "ok: $desc"
}

# expect_same <description> <file-a> <file-b>: byte equality, reported
# with the unified diff on failure (not just exit 1), so a stale fixture
# or golden file names exactly what drifted.
expect_same() {
  local desc="$1" a="$2" b="$3"
  local delta
  if delta="$(diff -u "$a" "$b" 2>&1)"; then
    echo "ok: $desc"
  else
    echo "FAIL: $desc: files differ"
    echo "$delta" | sed 's/^/    /'
    failures=$((failures + 1))
  fi
}

# normalize_times: volatile wall-clock fields become <t> so table output
# can be compared against checked-in golden files; the spaces padding
# them collapse too, since wider times shift the column.
normalize_times() {
  sed -E 's/ *[0-9]+\.[0-9]+/ <t>/g'
}

# classify: a PTIME catalog query (q_ACconf, Proposition 12) ...
expect "classify PTIME query" "RES(q) is PTIME" \
    classify "A(x), R(x,y), R(z,y), C(z)"

# ... and an NP-complete one (q_chain, Proposition 10).
expect "classify NP-complete query" "RES(q) is NP-complete" \
    classify "R(x,y), R(y,z)"

# classify by catalog name, including the triangle triad of the issue.
expect "classify triad by text" "triad" classify "R(x,y), S(y,z), T(z,x)"
expect "classify by --name" "RES(q) is PTIME" classify --name q_perm

# explain: the plan printer shows the pipeline and the registered solver
# (with paper citation) for one PTIME and one NP-complete query.
expect "explain PTIME query routes to linear-flow" "linear-flow" \
    explain "A(x), R(x,y), R(z,y), C(z)"
expect "explain names the pipeline" "pipeline" \
    explain "A(x), R(x,y), R(z,y), C(z)"
expect "explain NP-complete query plans the exact solver" "branch-and-bound" \
    explain "R(x,y), R(y,z)"
expect "explain cites the paper" "Proposition 33" explain --name q_perm

# catalog: exits 0 only if the classifier matches every published verdict.
expect "catalog self-check" "classifier agrees on" catalog
expect "catalog detail view" "Proposition 39" catalog q_AC3conf

# resilience: Section 2 running example, rho(q_chain, D) = 2, and the
# CLI verifies the contingency set before reporting success.
expect "resilience of Section 2 example" "rho(q, D) = 2" \
    resilience "R(x,y), R(y,z)" "$SRC/data/section2_chain.tuples"
expect "contingency verification" "query is false" \
    resilience "R(x,y), R(y,z)" "$SRC/data/section2_chain.tuples"
expect "exact reference solver" "rho(q, D) = 1" \
    resilience --name q_vc "$SRC/data/vc_path.tuples" --exact

# budgets: an ample node budget must not change the exact answer, and a
# tiny witness limit must surface as a structured outcome (exit 1 with a
# "witness budget exceeded" line), never as a silently wrong answer.
expect "node budget keeps the exact answer" "rho(q, D) = 2" \
    resilience "R(x,y), R(y,z)" "$SRC/data/section2_chain.tuples" \
    --exact --exact-node-budget 100000
budget_out="$("$RESCQ" resilience "R(x,y), R(y,z)" \
    "$SRC/data/section2_chain.tuples" --exact --witness-limit 1 2>&1)"
budget_status=$?
if [ "$budget_status" -eq 1 ] \
    && grep -q "witness budget exceeded" <<<"$budget_out"; then
  echo "ok: witness budget exceeded is a structured outcome"
else
  echo "FAIL: --witness-limit 1 should exit 1 with a budget message"
  echo "$budget_out" | sed 's/^/    /'
  failures=$((failures + 1))
fi
expect "batch reports budget-exceeded cells" "(budget exceeded)" \
    batch --scenarios chain --sizes 4 --seeds 1 --witness-limit 1
expect "batch counts budget cells in the summary" "1 over budget" \
    batch --scenarios chain --sizes 4 --seeds 1 --witness-limit 1

# gen: the scenario catalog lists the workload families, and generated
# fixtures are deterministic in the seed.
expect "gen scenario catalog" "vc_er" gen --list
expect "resilience of generated perm fixture" "rho(q, D) = 5" \
    resilience "R(x,y), R(y,x)" "$SRC/data/gen_perm_small.tuples"
expect "perm fixture solved by perm-count" "perm-count" \
    resilience "R(x,y), R(y,x)" "$SRC/data/gen_perm_small.tuples"
expect "resilience of generated ER fixture" "rho(q, D) = 4" \
    resilience --name q_vc "$SRC/data/gen_vc_er.tuples"

gen_a="$(mktemp)" ; gen_b="$(mktemp)"
"$RESCQ" gen --scenario vc_er --size 8 --seed 1 --out "$gen_a" >/dev/null
"$RESCQ" gen --scenario vc_er --size 8 --seed 1 --out "$gen_b" >/dev/null
if diff -q "$gen_a" "$gen_b" >/dev/null; then
  echo "ok: gen is deterministic in the seed"
else
  echo "FAIL: gen produced different files for the same seed"
  failures=$((failures + 1))
fi
# the checked-in fixture must match what `rescq gen --seed 1` emits
# today (compare facts only, so future header tweaks don't break this);
# a mismatch prints the diff so the stale facts are named directly.
facts_now="$(mktemp)" ; facts_repo="$(mktemp)"
grep -v '^#' "$gen_a" > "$facts_now"
grep -v '^#' "$SRC/data/gen_vc_er.tuples" > "$facts_repo"
expect_same "checked-in gen_vc_er.tuples matches the generator" \
    "$facts_repo" "$facts_now"
rm -f "$gen_a" "$gen_b" "$facts_now" "$facts_repo"

# The perm fixture gets the same freshness check.
gen_perm="$(mktemp)" ; facts_now="$(mktemp)" ; facts_repo="$(mktemp)"
"$RESCQ" gen --scenario perm --size 6 --seed 1 --out "$gen_perm" >/dev/null
grep -v '^#' "$gen_perm" > "$facts_now"
grep -v '^#' "$SRC/data/gen_perm_small.tuples" > "$facts_repo"
expect_same "checked-in gen_perm_small.tuples matches the generator" \
    "$facts_repo" "$facts_now"
rm -f "$gen_perm" "$facts_now" "$facts_repo"

# stream: incremental maintenance under churn. The generated stream is
# deterministic, every epoch cross-checks against the from-scratch
# oracle, and the table output matches the checked-in golden file after
# timing normalization.
expect "stream epochs match the oracle" "0 mismatch(es)" \
    stream "R(x,y), R(y,z)" "$SRC/data/section2_chain.tuples" \
    --churn mixed --epochs 4 --rate 0.25 --seed 7 --check-oracle
stream_out="$(mktemp)"
"$RESCQ" stream "R(x,y), R(y,z)" "$SRC/data/section2_chain.tuples" \
    --churn mixed --epochs 4 --rate 0.25 --seed 7 --check-oracle \
    | normalize_times > "$stream_out"
expect_same "stream table matches the golden file" \
    "$SRC/tests/golden/stream_chain.golden" "$stream_out"
rm -f "$stream_out"

# explain output is fully deterministic: compare verbatim. q_rats is a
# PTIME component no construction covers, so its one solver is
# exact-fallback.
explain_out="$(mktemp)"
for name in q_vc q_rats; do
    "$RESCQ" explain --name "$name" > "$explain_out"
    expect_same "explain $name matches the golden file" \
        "$SRC/tests/golden/explain_$name.golden" "$explain_out"
done
# One query per construction, so each construction's explain row is pinned.
for name in q_ACconf z3 q_perm q_Aperm q_A3perm_R q_TS3conf; do
    "$RESCQ" explain --name "$name"
done > "$explain_out"
expect_same "explain of one query per construction matches the golden file" \
    "$SRC/tests/golden/explain_constructions.golden" "$explain_out"
rm -f "$explain_out"

# update-file round trip: a generated churn stream saved with
# --emit-updates and replayed with --updates must produce the identical
# report (and the file must survive a second round trip byte-for-byte).
upd_a="$(mktemp)" ; upd_b="$(mktemp)" ; rep_a="$(mktemp)" ; rep_b="$(mktemp)"
"$RESCQ" stream --name q_vc "$SRC/data/gen_vc_er.tuples" \
    --churn hub --epochs 3 --rate 0.2 --seed 5 --check-oracle \
    --emit-updates "$upd_a" | normalize_times > "$rep_a"
"$RESCQ" stream --name q_vc "$SRC/data/gen_vc_er.tuples" \
    --updates "$upd_a" --check-oracle --emit-updates "$upd_b" \
    | normalize_times > "$rep_b"
expect_same "replaying an emitted update file reproduces the report" \
    "$rep_a" "$rep_b"
if diff -q <(grep -v '^#' "$upd_a") <(grep -v '^#' "$upd_b") >/dev/null; then
  echo "ok: update files round-trip byte-for-byte (modulo headers)"
else
  echo "FAIL: update file changed across a read/write round trip"
  diff -u <(grep -v '^#' "$upd_a") <(grep -v '^#' "$upd_b") | sed 's/^/    /'
  failures=$((failures + 1))
fi
rm -f "$upd_a" "$upd_b" "$rep_a" "$rep_b"

# stream report files: the JSON carries the v6 schema (with a metrics
# block) and a zero mismatch summary.
stream_json="$(mktemp)"
"$RESCQ" stream --name q_vc "$SRC/data/gen_vc_er.tuples" \
    --churn mixed --epochs 3 --rate 0.2 --seed 2 --check-oracle \
    --json "$stream_json" >/dev/null
if grep -q '"schema": "rescq-stream-report/v6"' "$stream_json" \
    && grep -q '"metrics"' "$stream_json" \
    && grep -q '"mismatches": 0' "$stream_json"; then
  echo "ok: stream JSON report is v6 with metrics and 0 mismatches"
else
  echo "FAIL: stream JSON report lacks the v6 schema/metrics or has mismatches"
  sed 's/^/    /' "$stream_json"
  failures=$((failures + 1))
fi
rm -f "$stream_json"

# observability sinks: --metrics-json and --trace-out on a stream run
# must write valid JSON — the rescq-metrics/v1 snapshot with the
# bytes/tuple and bytes/witness gauges, and a Chrome trace_event
# document with at least one complete event. python3 -m json.tool is the
# well-formedness oracle when python3 is available.
metrics_json="$(mktemp)" ; trace_json="$(mktemp)"
"$RESCQ" stream --name q_vc "$SRC/data/gen_vc_er.tuples" \
    --churn hub --epochs 3 --rate 0.2 --seed 5 \
    --metrics-json "$metrics_json" --trace-out "$trace_json" >/dev/null
if grep -q '"schema": "rescq-metrics/v1"' "$metrics_json" \
    && grep -q '"mem.bytes_per_tuple"' "$metrics_json" \
    && grep -q '"mem.bytes_per_witness"' "$metrics_json" \
    && grep -q '"incremental.epochs": 3' "$metrics_json"; then
  echo "ok: --metrics-json writes a rescq-metrics/v1 snapshot with mem gauges"
else
  echo "FAIL: metrics snapshot lacks the v1 schema or the mem.* gauges"
  sed 's/^/    /' "$metrics_json"
  failures=$((failures + 1))
fi
if grep -q '"traceEvents"' "$trace_json" \
    && grep -q '"ph": "X"' "$trace_json" \
    && grep -q '"name": "epoch-apply"' "$trace_json"; then
  echo "ok: --trace-out writes Chrome trace events incl. epoch-apply spans"
else
  echo "FAIL: trace output lacks traceEvents / epoch-apply spans"
  sed 's/^/    /' "$trace_json"
  failures=$((failures + 1))
fi
if command -v python3 >/dev/null 2>&1; then
  if python3 -m json.tool "$metrics_json" >/dev/null \
      && python3 -m json.tool "$trace_json" >/dev/null; then
    echo "ok: metrics and trace files parse as JSON"
  else
    echo "FAIL: metrics or trace file is not valid JSON"
    failures=$((failures + 1))
  fi
fi
rm -f "$metrics_json" "$trace_json"

# resilience --stats: the timing/counter block is golden-checked (the
# counters are deterministic by the thread-invariance contract; the
# wall-clock fields normalize to <t>).
stats_out="$(mktemp)"
"$RESCQ" resilience "R(x,y), R(y,z)" "$SRC/data/section2_chain.tuples" \
    --stats | normalize_times > "$stats_out"
expect_same "resilience --stats matches the golden file" \
    "$SRC/tests/golden/resilience_stats_chain.golden" "$stats_out"
rm -f "$stats_out"

# batch: a tiny smoke sweep over every scenario on 2 threads, with the
# exact-solver cross-check on; the JSON report is left in the working
# directory for CI to upload as an artifact.
expect "batch smoke sweep (oracle clean)" "0 mismatch(es)" \
    batch --scenarios all --max-size 4 --seeds 1 --threads 2 \
    --check-oracle --json batch_report.json
if grep -q '"mismatches": 0' batch_report.json; then
  echo "ok: batch JSON report written with 0 mismatches"
else
  echo "FAIL: batch_report.json missing or reports mismatches"
  failures=$((failures + 1))
fi
# schema v6: the report must carry the plan-cache counters, the
# budget-exceeded accounting, the solver_threads option, the metrics
# block, and each cell's contingency set.
if grep -q '"schema": "rescq-batch-report/v6"' batch_report.json \
    && grep -q '"plan_cache"' batch_report.json \
    && grep -q '"budget_exceeded"' batch_report.json \
    && grep -q '"solver_threads"' batch_report.json \
    && grep -q '"metrics"' batch_report.json \
    && grep -q '"contingency": \[\[' batch_report.json; then
  echo "ok: batch JSON report is v6 with plan-cache, budget, solver, metrics, contingency"
else
  echo "FAIL: batch_report.json lacks the v6 plan-cache/budget/solver/metrics/contingency fields"
  failures=$((failures + 1))
fi

# determinism across thread counts: every column up to oracle_resilience
# (1-15) must be byte-identical between --threads 1 and --threads 4;
# only memo attribution and wall time may differ.
csv_1="$(mktemp)" ; csv_4="$(mktemp)"
"$RESCQ" batch --scenarios all --max-size 4 --seeds 1,2 --threads 1 \
    --check-oracle --csv "$csv_1" >/dev/null
"$RESCQ" batch --scenarios all --max-size 4 --seeds 1,2 --threads 4 \
    --check-oracle --csv "$csv_4" >/dev/null
if diff -q <(cut -d, -f1-15 "$csv_1") <(cut -d, -f1-15 "$csv_4") >/dev/null; then
  echo "ok: batch results identical on 1 and 4 threads"
else
  echo "FAIL: batch results differ between --threads 1 and --threads 4"
  failures=$((failures + 1))
fi
rm -f "$csv_1" "$csv_4"

# plan file: flags and files drive the same engine.
plan="$(mktemp)"
printf 'scenarios = vc_path, chain\nsizes = 4\nseeds = 1\ncheck_oracle = true\n' > "$plan"
expect "batch from plan file" "0 mismatch(es)" batch --plan "$plan"
rm -f "$plan"

# error handling: bad input must fail with the documented usage-error
# exit code 2 — any other status (including a crash) is a failure.
expect_usage_error() {
  local desc="$1"
  shift
  "$RESCQ" "$@" >/dev/null 2>&1
  local status=$?
  if [ "$status" -ne 2 ]; then
    echo "FAIL: $desc: expected exit 2, got $status"
    failures=$((failures + 1))
  else
    echo "ok: $desc"
  fi
}

expect_usage_error "malformed query rejected" classify "lower(x)"
expect_usage_error "explain without a query rejected" explain
expect_usage_error "explain with stray argument rejected" explain \
    "R(x,y), R(y,z)" extra
expect_usage_error "missing tuple file rejected" \
    resilience "R(x,y)" /nonexistent.tuples
tmpfile="$(mktemp)"
printf 'R(1)\nR(1,2)\n' > "$tmpfile"
expect_usage_error "arity-inconsistent tuple file rejected" \
    resilience "R(x,y)" "$tmpfile"
printf 'R(a,b) R(c,d)\n' > "$tmpfile"
expect_usage_error "two facts on one line rejected" \
    resilience "R(x,y)" "$tmpfile"
rm -f "$tmpfile"
expect_usage_error "unknown scenario rejected" gen --scenario bogus
expect_usage_error "gen without scenario rejected" gen --size 5
expect_usage_error "unknown batch scenario rejected" batch --scenarios bogus
expect_usage_error "unknown batch flag rejected" batch --frobnicate
expect_usage_error "unwritable batch JSON report rejected" \
    batch --scenarios vc_er --sizes 4 --json /dev/full
expect_usage_error "unwritable stream CSV report rejected" \
    stream --name q_vc "$SRC/data/gen_vc_er.tuples" --churn mixed \
    --epochs 2 --csv /dev/full
expect_usage_error "stream without a source of updates rejected" \
    stream "R(x,y)" "$SRC/data/section2_chain.tuples"
expect_usage_error "stream with unknown churn kind rejected" \
    stream "R(x,y)" "$SRC/data/section2_chain.tuples" --churn bogus
expect_usage_error "stream with both update sources rejected" \
    stream "R(x,y)" "$SRC/data/section2_chain.tuples" --churn mixed \
    --updates /nonexistent.updates
tmpupd="$(mktemp)"
printf 'R(a,b)\n' > "$tmpupd"  # unsigned fact: not an update file
expect_usage_error "malformed update file rejected" \
    stream "R(x,y)" "$SRC/data/section2_chain.tuples" --updates "$tmpupd"
printf '+ R(a)\n' > "$tmpupd"  # arity clash with the base database
expect_usage_error "arity-inconsistent update file rejected" \
    stream "R(x,y)" "$SRC/data/section2_chain.tuples" --updates "$tmpupd"
rm -f "$tmpupd"

# serve + loadgen: a daemon on an ephemeral port (parsed from its
# announcement line), driven by an oracle-checked loadgen run, then shut
# down by SIGTERM — which must still produce the metrics snapshot.
serve_log="$(mktemp)" ; serve_metrics="$(mktemp)" ; loadgen_json="$(mktemp)"
"$RESCQ" serve --port 0 --threads 2 --metrics-json "$serve_metrics" \
    > "$serve_log" 2>&1 &
serve_pid=$!
serve_port=""
for _ in $(seq 1 50); do
  serve_port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
      "$serve_log" | head -n1)"
  [ -n "$serve_port" ] && break
  sleep 0.1
done
if [ -z "$serve_port" ]; then
  echo "FAIL: serve never announced its port"
  sed 's/^/    /' "$serve_log"
  failures=$((failures + 1))
  kill "$serve_pid" 2>/dev/null
else
  echo "ok: serve announced an ephemeral port ($serve_port)"
  loadgen_out="$("$RESCQ" loadgen --port "$serve_port" --connections 4 \
      --scenario vc_er --size 8 --epochs 2 --rate 0.15 --seed 3 \
      --check-oracle --json "$loadgen_json" 2>&1)"
  loadgen_status=$?
  if [ "$loadgen_status" -eq 0 ] \
      && grep -qF "0 mismatch" <<<"$loadgen_out"; then
    echo "ok: loadgen against live serve is oracle-clean"
  else
    echo "FAIL: loadgen exited $loadgen_status or reported mismatches"
    echo "$loadgen_out" | sed 's/^/    /'
    failures=$((failures + 1))
  fi
  if grep -q '"schema": "rescq-loadgen-report/v1"' "$loadgen_json" \
      && grep -q '"oracle_mismatches": 0' "$loadgen_json" \
      && grep -q '"p50_ms"' "$loadgen_json"; then
    echo "ok: loadgen JSON report is v1 with latency fields"
  else
    echo "FAIL: loadgen JSON report lacks the v1 schema/latency fields"
    sed 's/^/    /' "$loadgen_json"
    failures=$((failures + 1))
  fi
  # --timeout-ms 0 turns the connect and reply deadlines off.
  expect "loadgen with --timeout-ms 0 is oracle-clean" "0 mismatch" \
      loadgen --port "$serve_port" --connections 1 --scenario vc_er \
      --size 4 --epochs 1 --seed 3 --check-oracle --timeout-ms 0
  # An update file piped verbatim: a whole session script, ~250 updates
  # in one epoch, in one write. Every line gets its reply, in order, and
  # the connection closes on quit within 5 s.
  if command -v python3 >/dev/null 2>&1; then
    if pipe_out="$(python3 - "$serve_port" 2>&1 <<'PY'
import socket
import sys
import time

lines = ["open piped R(x), S(x,y), R(y)"]
for v in range(20):
    lines += [f"push R(v{v})", f"push S(v{v}, v{(v + 1) % 20})"]
lines.append("begin")
for i in range(250):
    sign = "-" if i % 4 == 3 else "+"
    lines.append(f"{sign} S(v{i * 7 % 20}, v{(i * 11 + 3) % 20})")
lines += ["epoch", "resilience", "quit"]

start = time.monotonic()
sock = socket.create_connection(("127.0.0.1", int(sys.argv[1])), timeout=5)
sock.sendall("".join(line + "\n" for line in lines).encode())
data = b""
while True:
    chunk = sock.recv(65536)
    if not chunk:
        break
    data += chunk
elapsed = time.monotonic() - start
replies = data.decode().splitlines()
epoch = next((i for i, r in enumerate(replies)
              if r.startswith("ok epoch ")), -1)
resilience = next((i for i, r in enumerate(replies)
                   if r.startswith("ok resilience ")), -1)
problems = []
if len(replies) != len(lines):
    problems.append(f"{len(replies)} replies to {len(lines)} lines")
if any(r.startswith("err ") for r in replies):
    problems.append("an err reply")
if not 0 <= epoch < resilience:
    problems.append("no 'ok epoch' before 'ok resilience'")
if not replies or replies[-1] != "ok bye":
    problems.append("no final 'ok bye'")
if elapsed >= 5:
    problems.append(f"took {elapsed:.2f} s")
print("; ".join(problems) or f"{len(replies)} replies in {elapsed:.3f} s")
sys.exit(1 if problems else 0)
PY
    )"; then
      echo "ok: a piped update file gets every reply, in order ($pipe_out)"
    else
      echo "FAIL: piped update file against live serve: $pipe_out"
      failures=$((failures + 1))
    fi
  fi
  kill -TERM "$serve_pid"
  if wait "$serve_pid"; then
    echo "ok: serve exits 0 on SIGTERM"
  else
    echo "FAIL: serve exited non-zero on SIGTERM"
    sed 's/^/    /' "$serve_log"
    failures=$((failures + 1))
  fi
  if grep -q '"schema": "rescq-metrics/v1"' "$serve_metrics" \
      && grep -q '"server.requests"' "$serve_metrics" \
      && grep -q '"server.request_ms"' "$serve_metrics"; then
    echo "ok: serve wrote a metrics snapshot with server.* series"
  else
    echo "FAIL: serve metrics snapshot lacks the server.* series"
    sed 's/^/    /' "$serve_metrics"
    failures=$((failures + 1))
  fi
  if command -v python3 >/dev/null 2>&1; then
    if python3 -m json.tool "$loadgen_json" >/dev/null \
        && python3 -m json.tool "$serve_metrics" >/dev/null; then
      echo "ok: loadgen report and serve metrics parse as JSON"
    else
      echo "FAIL: loadgen report or serve metrics is not valid JSON"
      failures=$((failures + 1))
    fi
  fi
fi
rm -f "$serve_log" "$serve_metrics" "$loadgen_json"

# route + loadgen: the consistent-hash front-end over two in-process
# shards (parsed from its own announcement line), driven by the same
# oracle-checked loadgen run through the router port, then shut down by
# SIGTERM — which must still flush the shard.* metrics snapshot.
route_log="$(mktemp)" ; route_metrics="$(mktemp)" ; route_json="$(mktemp)"
"$RESCQ" route --shards 2 --port 0 --threads 2 \
    --metrics-json "$route_metrics" > "$route_log" 2>&1 &
route_pid=$!
route_port=""
for _ in $(seq 1 50); do
  route_port="$(sed -n 's/.*routing on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
      "$route_log" | head -n1)"
  [ -n "$route_port" ] && break
  sleep 0.1
done
if [ -z "$route_port" ]; then
  echo "FAIL: route never announced its port"
  sed 's/^/    /' "$route_log"
  failures=$((failures + 1))
  kill "$route_pid" 2>/dev/null
else
  echo "ok: route announced an ephemeral port ($route_port)"
  route_out="$("$RESCQ" loadgen --port "$route_port" --connections 4 \
      --scenario vc_er --size 8 --epochs 2 --rate 0.15 --seed 3 \
      --check-oracle --json "$route_json" 2>&1)"
  route_status=$?
  if [ "$route_status" -eq 0 ] \
      && grep -qF "0 mismatch" <<<"$route_out" \
      && grep -qF "0 err replies" <<<"$route_out"; then
    echo "ok: loadgen through the 2-shard router is oracle-clean"
  else
    echo "FAIL: routed loadgen exited $route_status or reported errors"
    echo "$route_out" | sed 's/^/    /'
    failures=$((failures + 1))
  fi
  kill -TERM "$route_pid"
  if wait "$route_pid"; then
    echo "ok: route exits 0 on SIGTERM"
  else
    echo "FAIL: route exited non-zero on SIGTERM"
    sed 's/^/    /' "$route_log"
    failures=$((failures + 1))
  fi
  if grep -q '"schema": "rescq-metrics/v1"' "$route_metrics" \
      && grep -q '"shard.requests"' "$route_metrics" \
      && grep -q '"shard.forwarded"' "$route_metrics"; then
    echo "ok: route wrote a metrics snapshot with shard.* series"
  else
    echo "FAIL: route metrics snapshot lacks the shard.* series"
    sed 's/^/    /' "$route_metrics"
    failures=$((failures + 1))
  fi
fi
rm -f "$route_log" "$route_metrics" "$route_json"

expect_usage_error "loadgen without a port rejected" loadgen
expect_usage_error "serve with a bad port rejected" serve --port 99999
expect_usage_error "route without backends rejected" route
expect_usage_error "route with a bad shard spec rejected" route --shard bogus

# The usage-error surface: each bad invocation's stderr and exit status,
# diffed against tests/golden/cli_errors.golden. Arguments holding a
# space print double-quoted; the source dir prints as <src>. Every case
# fails while parsing its flags, so nothing listens or connects.
record_error() {
  local shown="" arg
  for arg in "$@"; do
    [[ "$arg" == *" "* ]] && arg="\"$arg\""
    shown+=" $arg"
  done
  echo "\$ rescq$shown" | sed "s|$SRC|<src>|g"
  "$RESCQ" "$@" 2>&1 >/dev/null | sed "s|$SRC|<src>|g"
  echo "exit ${PIPESTATUS[0]}"
}
chain="$SRC/data/section2_chain.tuples"
errors_out="$(mktemp)"
{
  record_error
  record_error bogus
  record_error help
  # a flag's value is missing
  record_error resilience "R(x,y), R(y,z)" "$chain" --solver-threads
  record_error resilience "R(x,y), R(y,z)" "$chain" --metrics-json
  record_error gen --scenario
  record_error batch --csv
  record_error batch --plan
  # positive integers
  record_error gen --scenario vc_er --size 0
  record_error batch --threads -1
  record_error stream "R(x,y)" "$chain" --churn mixed --epochs x
  record_error route --shards 2 --threads 0
  record_error resilience "R(x,y), R(y,z)" "$chain" --solver-threads 0
  # unsigned integers
  record_error gen --scenario vc_er --seed -1
  record_error batch --witness-limit x
  record_error serve --max-sessions x
  record_error resilience "R(x,y), R(y,z)" "$chain" --exact-node-budget -1
  # probabilities
  record_error gen --scenario vc_er --density 2
  record_error batch --density 1.5
  record_error stream "R(x,y)" "$chain" --churn mixed --rate 2
  record_error loadgen --rate x
  # ports
  record_error serve --port 99999
  record_error serve --port -1
  record_error route --shards 2 --port x
  record_error loadgen --port 0
  record_error loadgen --port x
  record_error loadgen --port 99999
  # an unknown flag, on each flag-taking subcommand
  record_error resilience --name q_chain "$chain" --stat
  record_error gen --bogus
  record_error batch --frobnicate
  record_error stream "R(x,y)" "$chain" --churn mixed --epoch 3
  record_error serve --bogus
  record_error route --bogus
  record_error loadgen --bogus
  # list values and cross-flag checks
  record_error batch --sizes 1,x
  record_error batch --seeds a
  record_error batch --sizes 4 --max-size 6
  record_error batch --plan /nonexistent.plan
  record_error stream "R(x,y)" "$chain"
  record_error stream "R(x,y)" "$chain" --churn mixed \
      --updates /nonexistent.updates
  record_error route
  record_error route --shards 0
  record_error route --shard x
  record_error route --shards 2 --shard 127.0.0.1:1
  record_error route --shard 127.0.0.1:1 --solver-threads 2 --host bogus
  record_error loadgen
} > "$errors_out"
expect_same "usage errors match the golden file" \
    "$SRC/tests/golden/cli_errors.golden" "$errors_out"
rm -f "$errors_out"

# help lists every subcommand on stdout.
help_out="$("$RESCQ" help)"
missing=""
for cmd in classify resilience explain catalog gen batch stream serve route \
    loadgen; do
  grep -q "^  rescq $cmd" <<<"$help_out" || missing+=" $cmd"
done
if [ -z "$missing" ]; then
  echo "ok: help lists all 10 subcommands"
else
  echo "FAIL: help omits:$missing"
  failures=$((failures + 1))
fi

if [ "$failures" -ne 0 ]; then
  echo "$failures smoke-test failure(s)"
  exit 1
fi
echo "all CLI smoke tests passed"
