#!/usr/bin/env bash
# Full verify recipe — see docs/README.md.
# Tier-1 (ROADMAP.md): build + test. Doc gates keep the public API honest.
set -euo pipefail
cd "$(dirname "$0")/.."

# Prints the rest of the first line of the serve log $1 that starts with
# "$2 " (default `listening on`), waiting up to 10 s for it; fails,
# printing nothing, if the line never appears.
announced() {
  local log=$1 prefix=${2:-listening on} addr
  for _ in $(seq 1 100); do
    addr=$(sed -n "s/^$prefix //p" "$log")
    [ -n "$addr" ] && { echo "$addr"; return 0; }
    sleep 0.1
  done
  return 1
}

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo clippy --workspace (-D warnings)"
cargo clippy --workspace --all-targets --quiet -- -D warnings

echo "==> cargo test --workspace"
cargo test -q --workspace

# The dump races the session's own bookkeeping unless the server orders it
# behind the commands before it; one run rarely shows that, 50 do. The
# second test checks every dumped line against a teed trace writer's. The
# third catches an inbox push that falls between the writer thread's look
# and its wait, or between a reply's drain and the end of its busy mark.
echo "==> flight-recorder dump and idle-peer wake-up tests, 50 repetitions"
for i in $(seq 1 50); do
  if ! out=$(cargo test -q -p adpm-collab --lib -- --exact \
      server::tests::dump_keeps_whole_operations_on_a_large_network \
      server::tests::profiles_reach_a_trace_writer_but_not_the_flight_recorder \
      server::tests::idle_peer_receives_every_event_while_another_connection_submits 2>&1); then
    echo "$out"
    echo "dump or wake-up tests failed on repetition $i of 50"
    exit 1
  fi
done

echo "==> fig_incremental smoke run (3 seeds, equivalence oracle)"
cargo run --release -q -p adpm-bench --bin fig_incremental -- 3 >/dev/null

# These figures are seed-deterministic, so a fresh run must rewrite their
# checked-in JSON twins byte for byte; a difference means a stale twin or a
# change in behaviour (their spins and violation counts come from the DPM's
# per-operation bookkeeping). bench_negotiation prints no timings, so its
# text table is held to the same rule as its JSON twin.
FIGURES="fig7_profile fig8_stats fig9_operations fig9_evaluations fig10_tightness
         ablation_heuristics scaling_teams"
echo "==> figure twins match a fresh run ($(echo $FIGURES) bench_negotiation)"
for FIG in $FIGURES; do
  cargo run --release -q -p adpm-bench --bin "$FIG" >/dev/null
  git diff --exit-code -- "results/$FIG.json" || {
    echo "a fresh run of $FIG rewrote results/$FIG.json"; exit 1; }
done
cargo run --release -q -p adpm-bench --bin bench_negotiation >results/BENCH_negotiation.txt
git diff --exit-code -- results/BENCH_negotiation.json results/BENCH_negotiation.txt || {
  echo "a fresh run of bench_negotiation rewrote results/BENCH_negotiation.{json,txt}"; exit 1; }

echo "==> adpm analyze smoke run (golden trace)"
cargo run --release -q -p adpm-cli --bin adpm -- analyze tests/golden/sensing_short.jsonl >/dev/null

echo "==> adpm diff-trace self-comparison (golden vs golden, must exit 0)"
cargo run --release -q -p adpm-cli --bin adpm -- diff-trace \
  tests/golden/sensing_short.jsonl tests/golden/sensing_short.jsonl >/dev/null

echo "==> propagation smoke runs (all builtins + mini scenario)"
cat > /tmp/verify_engine_mini.dddl <<'EOF'
object rx {
    property P-front : interval(0, 300);
    property P-ser : interval(0, 300);
}
constraint power: rx.P-front + rx.P-ser <= 200;
problem top { constraints: power; designer 0; }
problem fe under top { outputs: rx.P-front; designer 0; }
problem de under top { outputs: rx.P-ser; designer 1; }
EOF
for SCEN in sensing receiver walkthrough; do
  cargo run --release -q -p adpm-cli --bin adpm -- builtin "$SCEN" > "/tmp/verify_engine_$SCEN.dddl"
done
for SRC in /tmp/verify_engine_sensing.dddl /tmp/verify_engine_receiver.dddl \
           /tmp/verify_engine_walkthrough.dddl /tmp/verify_engine_mini.dddl; do
  cargo run --release -q -p adpm-cli --bin adpm -- run "$SRC" \
    --seed 3 --max-ops 40 >/dev/null
done

# tests/golden/sensing_seed3_ops40.jsonl was recorded with the AST
# interpreter as the propagator; the compiled programs must reproduce its
# every statistic exactly.
echo "==> propagation trace vs interpreter-recorded reference (diff-trace both ways, zero tolerance)"
cargo run --release -q -p adpm-cli --bin adpm -- run /tmp/verify_engine_sensing.dddl \
  --seed 3 --max-ops 40 --trace /tmp/verify_engine_trace.jsonl >/dev/null
cargo run --release -q -p adpm-cli --bin adpm -- diff-trace \
  tests/golden/sensing_seed3_ops40.jsonl /tmp/verify_engine_trace.jsonl --abs 0 --rel 0 >/dev/null
cargo run --release -q -p adpm-cli --bin adpm -- diff-trace \
  /tmp/verify_engine_trace.jsonl tests/golden/sensing_seed3_ops40.jsonl --abs 0 --rel 0 >/dev/null
# Region propagation must reach the fixed points of full propagation, so a
# seeded run makes the same decisions and prints the same report; only the
# evaluation count may differ, and never upward.
echo "==> region vs full propagation (same run report, evaluations <= full)"
ADPM_BIN=target/release/adpm
for SRC in /tmp/verify_engine_sensing.dddl /tmp/verify_engine_receiver.dddl \
           /tmp/verify_engine_walkthrough.dddl /tmp/verify_engine_mini.dddl; do
  for SEED in 1 2 3; do
    FULL=$("$ADPM_BIN" run "$SRC" --seed "$SEED" --propagation full)
    REGION=$("$ADPM_BIN" run "$SRC" --seed "$SEED" --propagation incremental)
    diff <(grep -v '^constraint evaluations:' <<<"$FULL") \
         <(grep -v '^constraint evaluations:' <<<"$REGION") || {
      echo "$SRC seed $SEED: the region run's report differs from the full run's"; exit 1; }
    FULL_EVALS=$(sed -n 's/^constraint evaluations: *\([0-9]*\).*/\1/p' <<<"$FULL")
    REGION_EVALS=$(sed -n 's/^constraint evaluations: *\([0-9]*\).*/\1/p' <<<"$REGION")
    { [ -n "$FULL_EVALS" ] && [ -n "$REGION_EVALS" ] && [ "$REGION_EVALS" -le "$FULL_EVALS" ]; } || {
      echo "$SRC seed $SEED: region evaluations $REGION_EVALS > full $FULL_EVALS"; exit 1; }
  done
done
# Fig. 4-style explanations: required intervals, "no single-property fix"
# and helps directions for two binding sets on the receiver builtin.
echo "==> adpm explain on the receiver matches tests/golden/explain_receiver.txt"
{
  "$ADPM_BIN" explain /tmp/verify_engine_receiver.dddl \
    --bind lna-mixer.lna-gain=2 --bind lna-mixer.mix-gain=0.3 --bind filter.flt-loss=9 \
    --bind lna-mixer.lna-power=290 --bind lna-mixer.mix-power=90
  "$ADPM_BIN" explain /tmp/verify_engine_receiver.dddl \
    --bind filter.n-res=4 --bind filter.beam-len=5 --bind filter.flt-q=60 \
    --bind lna-mixer.lna-nf=14 --bind lna-mixer.bias-i=9.5
} | diff tests/golden/explain_receiver.txt - || {
  echo "adpm explain output differs from tests/golden/explain_receiver.txt"; exit 1; }
rm -f /tmp/verify_engine_sensing.dddl /tmp/verify_engine_receiver.dddl \
      /tmp/verify_engine_walkthrough.dddl /tmp/verify_engine_mini.dddl \
      /tmp/verify_engine_trace.jsonl

echo "==> concurrent teamsim smoke runs (2 designers, turn barrier; receiver in-process vs loopback)"
cat > /tmp/verify_mini.dddl <<'EOF'
object rx {
    property P-front : interval(0, 300);
    property P-ser : interval(0, 300);
}
constraint power: rx.P-front + rx.P-ser <= 200;
problem top { constraints: power; designer 0; }
problem fe under top { outputs: rx.P-front; designer 0; }
problem de under top { outputs: rx.P-ser; designer 1; }
EOF
cargo run --release -q -p adpm-cli --bin adpm -- run /tmp/verify_mini.dddl \
  --concurrent --turn-barrier --seed 7 | grep -q 'concurrent, turn barrier'
cargo run --release -q -p adpm-cli --bin adpm -- builtin receiver > /tmp/verify_rx.dddl
# Both concurrent transports run one designer loop, so a seeded loopback run
# makes the in-process turn-barrier run's decisions; the reports differ only
# in the header's driver label and the loopback run's `state digest` line.
for SEED in 1 2 3; do
  LOCAL=$(target/release/adpm run /tmp/verify_rx.dddl --concurrent --turn-barrier --seed "$SEED")
  REMOTE=$(target/release/adpm run /tmp/verify_rx.dddl --remote --seed "$SEED")
  diff <(tail -n +2 <<<"$LOCAL") <(tail -n +2 <<<"$REMOTE" | grep -v '^state digest:') || {
    echo "receiver seed $SEED: the loopback run's report differs from the in-process run's"; exit 1; }
done

echo "==> negotiation smoke run (3 designers share a budget, conflicts resolve in-session)"
cat > /tmp/verify_neg.dddl <<'EOF'
object rx {
    property P-a : interval(0, 300);
    property P-b : interval(0, 300);
    property P-c : interval(0, 300);
}
constraint power: rx.P-a + rx.P-b + rx.P-c <= 200;
problem top { constraints: power; designer 0; }
problem pa under top { outputs: rx.P-a; designer 0; }
problem pb under top { outputs: rx.P-b; designer 1; }
problem pc under top { outputs: rx.P-c; designer 2; }
EOF
NEG_OUT=$(cargo run --release -q -p adpm-cli --bin adpm -- run /tmp/verify_neg.dddl \
  --negotiate --turn-barrier --seed 2 --mode conventional --metrics)
echo "$NEG_OUT" | grep -q 'concurrent, turn barrier, negotiation' \
  || { echo "negotiation driver label missing"; exit 1; }
echo "$NEG_OUT" | grep -q 'completed = true' || { echo "negotiated run did not complete"; exit 1; }
echo "$NEG_OUT" | awk '
/^conflicts_resolved/  { resolved = $2 + 0 }
/^conflicts_abandoned/ { abandoned = $2 + 0 }
END {
  if (resolved < 1) { printf "conflicts_resolved %d < 1 — negotiation never fired\n", resolved; exit 1 }
  if (abandoned != 0) { printf "conflicts_abandoned %d != 0\n", abandoned; exit 1 }
  printf "negotiation resolved %d conflicts, 0 abandoned ok\n", resolved
}'
rm -f /tmp/verify_neg.dddl

echo "==> collaboration loopback smoke (serve / client / submit)"
ADPM_RELEASE=target/release/adpm
SERVE_LOG=$(mktemp)
"$ADPM_RELEASE" serve /tmp/verify_rx.dddl --port 0 > "$SERVE_LOG" &
SERVE_PID=$!
ADDR=$(announced "$SERVE_LOG") || { echo "serve never announced an address"; kill "$SERVE_PID"; exit 1; }
CLIENT_LOG=$(mktemp)
"$ADPM_RELEASE" client "$ADDR" --designer 1 --subscribe \
  --expect-events 1 --timeout-ms 10000 > "$CLIENT_LOG" &
CLIENT_PID=$!
sleep 0.3  # let the subscription land before the operation fires
"$ADPM_RELEASE" submit "$ADDR" --designer 1 --problem analog-front-end \
  --assign lna-mixer.lna-gain=20 | grep -q '"t":"executed"'
wait "$CLIENT_PID"   # exits non-zero unless the notification arrived
grep -q '"t":"event"' "$CLIENT_LOG"
"$ADPM_RELEASE" submit "$ADDR" --shutdown >/dev/null
wait "$SERVE_PID"    # serve must exit cleanly after the shutdown frame
grep -q 'session closed' "$SERVE_LOG"
rm -f "$SERVE_LOG" "$CLIENT_LOG"

echo "==> chaos equivalence smoke (faulty remote run converges to the clean digest)"
FAULT_PLAN='seed=5,drop=0.08,dup=0.1,corrupt=0.05,truncate=0.05,delay=0.2:2ms,kill=9'
CLEAN_DIGEST=$("$ADPM_RELEASE" run /tmp/verify_mini.dddl --remote --seed 7 \
  | sed -n 's/^state digest: //p')
CHAOS_DIGEST=$("$ADPM_RELEASE" run /tmp/verify_mini.dddl --remote --seed 7 \
  --fault-plan "$FAULT_PLAN" | sed -n 's/^state digest: //p')
[ -n "$CLEAN_DIGEST" ] || { echo "clean remote run printed no state digest"; exit 1; }
[ "$CLEAN_DIGEST" = "$CHAOS_DIGEST" ] || {
  echo "chaos run diverged: clean=$CLEAN_DIGEST chaotic=$CHAOS_DIGEST"; exit 1; }

echo "==> traced remote run (constraint profiles still reach the trace writer)"
# A served session tees the trace writer with its hub sinks and flight
# recorder; only the writer asks for the `cprof`/`pprof` lines.
RTRACE=$(mktemp)
"$ADPM_RELEASE" run /tmp/verify_rx.dddl --remote --seed 7 --trace "$RTRACE" >/dev/null
RANALYZE=$("$ADPM_RELEASE" analyze "$RTRACE")
rm -f "$RTRACE"
if grep -q 'no cprof' <<<"$RANALYZE"; then
  echo "traced remote run wrote no cprof lines"; exit 1
fi
# The table must charge evaluations, not only list violated constraints.
awk '/^constraint hot-spots/ { on = 1; next } /^$/ { on = 0 }
     on && $1 != "constraint" { evals += $2 } END { exit !(evals > 0) }' <<<"$RANALYZE" \
  || { echo "traced remote run has no constraint-attribution table"; exit 1; }

echo "==> crash-recovery smoke (kill -9 the server, restart, replay the journal)"
JOURNAL=/tmp/verify_journal.jsonl
rm -f "$JOURNAL"
SERVE_LOG=$(mktemp)
"$ADPM_RELEASE" serve /tmp/verify_rx.dddl --port 0 \
  --journal "$JOURNAL" --fsync always > "$SERVE_LOG" &
SERVE_PID=$!
ADDR=$(announced "$SERVE_LOG") || { echo "serve never announced an address"; kill "$SERVE_PID"; exit 1; }
"$ADPM_RELEASE" submit "$ADDR" --designer 1 --problem analog-front-end \
  --assign lna-mixer.lna-gain=20 | grep -q '"t":"executed"'
"$ADPM_RELEASE" submit "$ADDR" --designer 1 --problem analog-front-end \
  --verify | grep -q '"t":"executed"'
kill -9 "$SERVE_PID"     # simulated crash: no shutdown frame, no fsync window
wait "$SERVE_PID" 2>/dev/null || true
"$ADPM_RELEASE" serve /tmp/verify_rx.dddl --port 0 --journal "$JOURNAL" > "$SERVE_LOG" &
SERVE_PID=$!
ADDR=$(announced "$SERVE_LOG") || { echo "restarted serve never announced"; kill "$SERVE_PID"; exit 1; }
grep -q '^recovered 2 operations from' "$SERVE_LOG" || {
  echo "restart did not replay the journal"; cat "$SERVE_LOG"; kill "$SERVE_PID"; exit 1; }
"$ADPM_RELEASE" submit "$ADDR" --shutdown >/dev/null
wait "$SERVE_PID"
grep -q 'session closed: 2 operations' "$SERVE_LOG" || {
  echo "recovered history does not match"; cat "$SERVE_LOG"; exit 1; }
rm -f "$SERVE_LOG" "$JOURNAL"

echo "==> compaction smoke (snapshot + rotate, kill -9, recover from snapshot + tail)"
CJOURNAL=/tmp/verify_compact_journal.jsonl
rm -f "$CJOURNAL" "$CJOURNAL.prev"
SERVE_LOG=$(mktemp)
"$ADPM_RELEASE" serve /tmp/verify_rx.dddl --port 0 \
  --journal "$CJOURNAL" --fsync always --compact-every 2 > "$SERVE_LOG" &
SERVE_PID=$!
ADDR=$(announced "$SERVE_LOG") || { echo "compacting serve never announced"; kill "$SERVE_PID"; exit 1; }
for GAIN in 18 19 20 21; do
  "$ADPM_RELEASE" submit "$ADDR" --designer 1 --problem analog-front-end \
    --assign lna-mixer.lna-gain=$GAIN | grep -q '"t":"executed"'
done
# Compaction fired: the live journal starts from a snapshot, and the
# pre-compaction generation was preserved for torn-snapshot fallback.
grep -q '"t":"jsnap"' "$CJOURNAL" || { echo "no jsnap in compacted journal"; exit 1; }
[ -f "$CJOURNAL.prev" ] || { echo "compaction left no .prev generation"; exit 1; }
kill -9 "$SERVE_PID"     # crash after compaction: recovery = snapshot + tail
wait "$SERVE_PID" 2>/dev/null || true
"$ADPM_RELEASE" serve /tmp/verify_rx.dddl --port 0 --journal "$CJOURNAL" > "$SERVE_LOG" &
SERVE_PID=$!
ADDR=$(announced "$SERVE_LOG") || { echo "restarted compacting serve never announced"; kill "$SERVE_PID"; exit 1; }
grep -q '^recovered 4 operations from' "$SERVE_LOG" || {
  echo "snapshot+tail recovery lost operations"; cat "$SERVE_LOG"; kill "$SERVE_PID"; exit 1; }
"$ADPM_RELEASE" submit "$ADDR" --shutdown >/dev/null
wait "$SERVE_PID"
grep -q 'session closed: 4 operations' "$SERVE_LOG" || {
  echo "recovered compacted history does not match"; cat "$SERVE_LOG"; exit 1; }
rm -f "$SERVE_LOG" "$CJOURNAL" "$CJOURNAL.prev"

echo "==> disk-fault fail-stop smoke (a failed append is never acknowledged; a restart recovers the rest)"
DJOURNAL=/tmp/verify_faulty_journal.jsonl
for PLAN in 'seed=3,enospc=1.0' 'seed=3,fsync_fail=1.0'; do
  rm -f "$DJOURNAL"
  SERVE_LOG=$(mktemp)
  SERVE_ERR=$(mktemp)
  "$ADPM_RELEASE" serve /tmp/verify_rx.dddl --port 0 \
    --journal "$DJOURNAL" --fault-plan "$PLAN" > "$SERVE_LOG" 2> "$SERVE_ERR" &
  SERVE_PID=$!
  ADDR=$(announced "$SERVE_LOG") || { echo "$PLAN: serve never announced"; kill "$SERVE_PID"; exit 1; }
  # Every append fails, so the operation is not on disk: the session
  # closes instead of answering `executed`.
  if "$ADPM_RELEASE" submit "$ADDR" --designer 1 --problem analog-front-end \
      --assign lna-mixer.lna-gain=20 2>/dev/null | grep -q '"t":"executed"'; then
    echo "$PLAN: an operation that is not on disk was acknowledged"; kill "$SERVE_PID"; exit 1
  fi
  "$ADPM_RELEASE" submit "$ADDR" --shutdown >/dev/null
  if wait "$SERVE_PID"; then
    echo "$PLAN: serve exited 0 after its session closed"; cat "$SERVE_LOG" "$SERVE_ERR"; exit 1
  fi
  grep -qF -- "--journal $DJOURNAL" "$SERVE_ERR" || {
    echo "$PLAN: serve did not name the journal to recover from"; cat "$SERVE_ERR"; exit 1; }
  if grep -q '"t":"jop"' "$DJOURNAL"; then
    echo "$PLAN: the failed append left a jop line"; cat "$DJOURNAL"; exit 1
  fi
  "$ADPM_RELEASE" serve /tmp/verify_rx.dddl --port 0 --journal "$DJOURNAL" > "$SERVE_LOG" &
  SERVE_PID=$!
  ADDR=$(announced "$SERVE_LOG") || { echo "$PLAN: restarted serve never announced"; kill "$SERVE_PID"; exit 1; }
  grep -q '^recovered 0 operations from' "$SERVE_LOG" || {
    echo "$PLAN: recovery found operations nobody was told of"; cat "$SERVE_LOG"; kill "$SERVE_PID"; exit 1; }
  "$ADPM_RELEASE" submit "$ADDR" --designer 1 --problem analog-front-end \
    --assign lna-mixer.lna-gain=20 | grep -q '"t":"executed","seq":1' || {
    echo "$PLAN: the retried submit did not execute as seq 1"; kill "$SERVE_PID"; exit 1; }
  "$ADPM_RELEASE" submit "$ADDR" --shutdown >/dev/null
  wait "$SERVE_PID"
  rm -f "$SERVE_LOG" "$SERVE_ERR" "$DJOURNAL"
done

echo "==> multi-session smoke (2 named sessions, isolated state + per-session journals)"
MS_JOURNAL=/tmp/verify_ms_journal.jsonl
rm -f "$MS_JOURNAL" "$MS_JOURNAL.s1" "$MS_JOURNAL.s2"
SERVE_LOG=$(mktemp)
"$ADPM_RELEASE" serve /tmp/verify_rx.dddl --port 0 --sessions 2 \
  --journal "$MS_JOURNAL" --fsync always > "$SERVE_LOG" &
SERVE_PID=$!
ADDR=$(announced "$SERVE_LOG") || { echo "multi-session serve never announced"; kill "$SERVE_PID"; exit 1; }
# The same property binds in both sessions independently — each is seq 1.
"$ADPM_RELEASE" submit "$ADDR" --designer 1 --problem analog-front-end --session s1 \
  --assign lna-mixer.lna-gain=20 | grep -q '"t":"executed","seq":1'
"$ADPM_RELEASE" submit "$ADDR" --designer 1 --problem analog-front-end --session s2 \
  --assign lna-mixer.lna-gain=20 | grep -q '"t":"executed","seq":1'
# Without --allow-create, an unknown session is a typed rejection: exit 65.
set +e
"$ADPM_RELEASE" submit "$ADDR" --designer 1 --problem analog-front-end --session ghost \
  --assign lna-mixer.lna-gain=20 >/dev/null 2>&1
GHOST_RC=$?
set -e
[ "$GHOST_RC" -eq 65 ] || { echo "unknown session: expected exit 65, got $GHOST_RC"; exit 1; }
# Each session journaled exactly its own operation.
[ "$(grep -c '"t":"jop"' "$MS_JOURNAL.s1")" -eq 1 ] || { echo "s1 journal wrong"; exit 1; }
[ "$(grep -c '"t":"jop"' "$MS_JOURNAL.s2")" -eq 1 ] || { echo "s2 journal wrong"; exit 1; }
"$ADPM_RELEASE" submit "$ADDR" --shutdown >/dev/null
wait "$SERVE_PID"
# Both operations landed in named sessions; the default session stayed empty.
grep -q 'session closed: 0 operations' "$SERVE_LOG" || {
  echo "default session was not isolated"; cat "$SERVE_LOG"; exit 1; }
rm -f "$SERVE_LOG" "$MS_JOURNAL" "$MS_JOURNAL.s1" "$MS_JOURNAL.s2"

echo "==> named-session recovery smoke (serve --sessions 1 --journal F twice; s1 announces its replay)"
NS_JOURNAL=/tmp/verify_named_journal.jsonl
rm -f "$NS_JOURNAL" "$NS_JOURNAL.s1"
SERVE_LOG=$(mktemp)
"$ADPM_RELEASE" serve /tmp/verify_rx.dddl --port 0 --sessions 1 \
  --journal "$NS_JOURNAL" --fsync always > "$SERVE_LOG" &
SERVE_PID=$!
ADDR=$(announced "$SERVE_LOG") || { echo "named-session serve never announced"; kill "$SERVE_PID"; exit 1; }
"$ADPM_RELEASE" submit "$ADDR" --designer 1 --problem analog-front-end --session s1 \
  --assign lna-mixer.lna-gain=20 | grep -q '"t":"executed"'
"$ADPM_RELEASE" submit "$ADDR" --shutdown >/dev/null
wait "$SERVE_PID"
"$ADPM_RELEASE" serve /tmp/verify_rx.dddl --port 0 --sessions 1 \
  --journal "$NS_JOURNAL" > "$SERVE_LOG" &
SERVE_PID=$!
ADDR=$(announced "$SERVE_LOG") || { echo "restarted named-session serve never announced"; kill "$SERVE_PID"; exit 1; }
grep -q '^session s1: recovered 1 operations from' "$SERVE_LOG" || {
  echo "s1 did not announce its recovery"; cat "$SERVE_LOG"; kill "$SERVE_PID"; exit 1; }
"$ADPM_RELEASE" submit "$ADDR" --shutdown >/dev/null
wait "$SERVE_PID"
rm -f "$SERVE_LOG" "$NS_JOURNAL" "$NS_JOURNAL.s1"

echo "==> live telemetry smoke (scrape endpoint, adpm top --json, stats_reply schema)"
SERVE_LOG=$(mktemp)
"$ADPM_RELEASE" serve /tmp/verify_rx.dddl --port 0 --sessions 2 \
  --metrics-addr 127.0.0.1:0 > "$SERVE_LOG" &
SERVE_PID=$!
# `metrics on` is announced right after `listening on`.
MADDR=$(announced "$SERVE_LOG" 'metrics on') \
  && ADDR=$(sed -n 's/^listening on //p' "$SERVE_LOG") && [ -n "$ADDR" ] || {
  echo "serve never announced both addresses"; kill "$SERVE_PID"; exit 1; }
"$ADPM_RELEASE" submit "$ADDR" --designer 1 --problem analog-front-end --session s1 \
  --assign lna-mixer.lna-gain=20 | grep -q '"t":"executed"'
# Scrape over bare TCP — the endpoint speaks plaintext, no HTTP required.
SCRAPE=$(mktemp)
cat < "/dev/tcp/${MADDR%:*}/${MADDR##*:}" > "$SCRAPE"
grep -q '^adpm_session_ops{session="s1"} 1$' "$SCRAPE" || {
  echo "scrape missing s1 session_ops"; cat "$SCRAPE"; exit 1; }
grep -q '^adpm_session_ops{session="\*"} 1$' "$SCRAPE" || {
  echo "rollup did not aggregate session_ops"; cat "$SCRAPE"; exit 1; }
grep -q '^adpm_events{session="\*"}' "$SCRAPE" || {
  echo "scrape missing rollup events"; cat "$SCRAPE"; exit 1; }
# Three stats batches as JSONL, each default + s1 + s2 + the `*` rollup:
# the immediate first report and two the server pushed on its own.
TOP_LOG=$(mktemp)
"$ADPM_RELEASE" top "$ADDR" --json --count 3 --interval 50 > "$TOP_LOG"
[ "$(grep -c '"t":"stats_reply"' "$TOP_LOG")" -eq 12 ] || {
  echo "top: expected 12 stats_reply rows"; cat "$TOP_LOG"; exit 1; }
grep -q '"session":"s1"' "$TOP_LOG" || { echo "top missing s1"; cat "$TOP_LOG"; exit 1; }
grep -q '"session":"\*"' "$TOP_LOG" || { echo "top missing rollup"; cat "$TOP_LOG"; exit 1; }
# Schema lockstep: every non-metadata stats_reply key must name a counter
# the exposition also exposes (both sides iterate the Counter enum).
for KEY in $(grep '"t":"stats_reply"' "$TOP_LOG" | head -1 \
             | grep -o '"[a-z0-9_]*":' | tr -d '":'); do
  case "$KEY" in t|session|connections|watch|events|p50_us|p90_us|p99_us) continue ;; esac
  grep -q "^adpm_${KEY}{" "$SCRAPE" || {
    echo "stats_reply key $KEY is not an exposed counter"; exit 1; }
done
"$ADPM_RELEASE" submit "$ADDR" --shutdown >/dev/null
wait "$SERVE_PID"
rm -f "$SERVE_LOG" "$SCRAPE" "$TOP_LOG" /tmp/verify_rx.dddl /tmp/verify_mini.dddl

echo "==> results/BENCH_negotiation.json schema + resolution gate"
NEG_JSON=results/BENCH_negotiation.json
[ -f "$NEG_JSON" ] || { echo "$NEG_JSON missing — run bench_negotiation"; exit 1; }
grep -q '"t":"bench_case"' "$NEG_JSON" || { echo "$NEG_JSON has no bench_case rows"; exit 1; }
grep -q '"t":"bench_summary"' "$NEG_JSON" || { echo "$NEG_JSON has no bench_summary row"; exit 1; }
awk '
/"t":"bench_summary"/ {
  seen = 1
  if (match($0, /"resolution_rate":[0-9.]+/)) rate = substr($0, RSTART + 18, RLENGTH - 18) + 0
  if (match($0, /"negotiation_ops":[0-9]+/)) nops = substr($0, RSTART + 18, RLENGTH - 18) + 0
  if (match($0, /"baseline_ops":[0-9]+/)) bops = substr($0, RSTART + 15, RLENGTH - 15) + 0
  if (rate < 0.8) { printf "resolution_rate %.2f < 0.8\n", rate; exit 1 }
  if (nops <= 0 || bops <= 0) { print "missing ops totals in summary"; exit 1 }
  if (nops >= bops) { printf "negotiation_ops %d >= baseline_ops %d\n", nops, bops; exit 1 }
  printf "resolution_rate %.2f >= 0.8, ops %d < %d ok\n", rate, nops, bops
}
END { if (!seen) { print "no parseable bench_summary"; exit 1 } }' "$NEG_JSON"

# A traced perfbench run fails unless its per-layer self times reconcile
# with the end-to-end submit (negative self time within 25%) and the
# offline replay of core.execute stays within 0.5-2x of the live spans.
echo "==> perfbench traced runs (layer reconciliation + in-situ replay, registered workloads)"
for WORKLOAD in collab-large-net teamsim-batch; do
  cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
    --workload "$WORKLOAD" --seed 1 --seconds 4 --trace 1 >/dev/null
done

# Twice: the public build flags public docs that link to private items, the
# private build link-checks the docs of private modules and items.
echo "==> cargo doc --no-deps, public and --document-private-items (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --document-private-items --quiet

echo "==> cargo test --doc --workspace"
cargo test -q --doc --workspace

echo "verify: OK"
