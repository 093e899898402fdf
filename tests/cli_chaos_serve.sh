#!/usr/bin/env bash
# Chaos smoke for the fault-tolerant serving surface, end to end through
# the real CLI binary: serve --listen under an armed --fault-plan, fed by
# `send --stream-name --retries`, checkpointed, killed with SIGKILL,
# restarted with --restore on the same port, and finished by a resuming
# client — the per-stream totals must be identical to a clean, fault-free
# run over the same trace.
#
# Usage: cli_chaos_serve.sh <tiresias_cli> <scratch-dir>
#
# Determinism notes: the phase-1 trace is cut at a timeunit boundary, so
# everything the first server processes is a whole-unit prefix of the
# reference run; the unit-granular commit protocol then guarantees the
# resumed phase-2 stream replays exactly from the last committed
# boundary. A second declared stream (s1) never connects to the first
# server, which keeps it alive (listen mode drains when every stream ends)
# so the SIGKILL always lands mid-run; the restored server gets s1 ended
# by an empty send, so it exits as soon as s0 finishes.
set -u

CLI="$1"
DIR="$2"
UNIT=900  # ccd-net test-scale timeunit seconds (cut boundary below)

PID=
SENDPID=
fail() {
  echo "FAIL: $*" >&2
  [ -n "${PID:-}" ] && kill -9 "$PID" 2>/dev/null
  [ -n "${SENDPID:-}" ] && kill -9 "$SENDPID" 2>/dev/null
  exit 1
}

# Poll for a sed-extractable value in a file within ~10s.
await() {  # await <file> <sed-expr> -> echoes the value
  local file="$1" expr="$2" v="" i
  for i in $(seq 200); do
    v=$(sed -n "$expr" "$file" 2>/dev/null | head -1)
    [ -n "$v" ] && break
    sleep 0.05
  done
  echo "$v"
}

await_exit() {  # await_exit <pid> <what> <log>
  local pid="$1" what="$2" log="$3"
  local deadline=$((SECONDS + 90))
  while kill -0 "$pid" 2>/dev/null; do
    [ "$SECONDS" -ge "$deadline" ] && fail "$what did not exit (see $log)"
    sleep 0.1
  done
}

stream_totals() {  # stream_totals <log> -> "units records instances anomalies"
  sed -n 's/.*stream s0: units=\([0-9]*\) records=\([0-9]*\) instances=\([0-9]*\) anomalies=\([0-9]*\).*/\1 \2 \3 \4/p' \
      "$1" | head -1
}

rm -rf "$DIR"
mkdir -p "$DIR" || fail "cannot create scratch dir $DIR"
CKPT="$DIR/ckpt/checkpoint.tsnap"

# A 2-day test-scale trace with one leaf spiked after the warmup window.
LEAF="SHO/VHO0/IO1/CO1/DSLAM1"
"$CLI" generate --dataset ccd-net --scale test --days 2 --seed 3 \
    --spike "$LEAF:40:3:60" --out "$DIR/trace.csv" \
    >"$DIR/generate.log" 2>&1 || fail "generate failed"
records=$(sed -n 's/^wrote \([0-9]*\) records.*/\1/p' "$DIR/generate.log")
[ -n "$records" ] || fail "generate did not report a record count"

# Phase-1 prefix, cut exactly at a unit boundary (unit 96 of 192) so the
# mid-stream end-of-stream commits only whole units.
awk -F, -v u="$UNIT" 'int($NF / u) < 96' "$DIR/trace.csv" \
    >"$DIR/trace_head.csv"
[ -s "$DIR/trace_head.csv" ] || fail "phase-1 trace cut came out empty"

# ---- Reference: the same trace, clean connection, no faults ----
"$CLI" serve --listen 0 --loopback --stream-names s0 \
    --window 16 --theta 4 >"$DIR/serve_ref.log" 2>&1 &
PID=$!
port=$(await "$DIR/serve_ref.log" 's/.*ingest=\([0-9]*\).*/\1/p')
[ -n "$port" ] || fail "reference serve never listened"
timeout 60 "$CLI" send --to "127.0.0.1:$port" --trace "$DIR/trace.csv" \
    --dataset ccd-net --scale test --stream-name s0 \
    >"$DIR/send_ref.log" 2>&1 || fail "reference send failed"
await_exit "$PID" "reference serve" "$DIR/serve_ref.log"
wait "$PID" || fail "reference serve exited non-zero"
PID=
ref=$(stream_totals "$DIR/serve_ref.log")
[ -n "$ref" ] || fail "reference run printed no stream totals"

# ---- Chaos phase 1: faults armed, checkpoints on, then SIGKILL ----
# The port must survive the restart, so pick a fixed one (with retries:
# another suite may hold it).
started=
for try in 1 2 3 4 5; do
  port=$((21000 + (RANDOM % 20000)))
  "$CLI" serve --listen "$port" --loopback --stream-names s0,s1 \
      --window 16 --theta 4 --read-timeout-ms 120000 \
      --checkpoint-dir "$DIR/ckpt" --checkpoint-every 3 \
      --fault-plan "seed=5,disconnect=0.005,short-read=0.1,eintr=0.1" \
      >"$DIR/serve_chaos1.log" 2>&1 &
  PID=$!
  up=$(await "$DIR/serve_chaos1.log" 's/.*ingest=\([0-9]*\).*/\1/p')
  if [ -n "$up" ]; then started=1; break; fi
  kill -9 "$PID" 2>/dev/null
  wait "$PID" 2>/dev/null
done
[ -n "$started" ] || fail "chaos serve never came up on a fixed port"

# The client retries through the injected disconnects until the whole
# phase-1 prefix (minus the replayed-from-commit parts) is delivered.
timeout 120 "$CLI" send --to "127.0.0.1:$port" \
    --trace "$DIR/trace_head.csv" --dataset ccd-net --scale test \
    --stream-name s0 --frame 512 --retries 200 --backoff-ms 20 \
    >"$DIR/send_chaos1.log" 2>&1 || fail "phase-1 send gave up"

# Wait for a checkpoint of the phase-1 progress, then crash the server.
for i in $(seq 200); do
  [ -s "$CKPT" ] && break
  sleep 0.05
done
[ -s "$CKPT" ] || fail "no checkpoint appeared (see $DIR/serve_chaos1.log)"
kill -9 "$PID" || fail "could not SIGKILL the chaos serve"
wait "$PID" 2>/dev/null
PID=
# A SIGKILL mid-write may leave a temp snapshot; the atomic rename
# protocol means the published file is always whole.
rm -f "$CKPT.tmp"

# ---- Chaos phase 2: restore on the same port, client resumes ----
# No fault plan (the restored leg runs clean). s1 is ended explicitly
# below; the finite read timeout only bounds a run whose s1 end is lost.
"$CLI" serve --listen "$port" --loopback --stream-names s0,s1 \
    --window 16 --theta 4 --read-timeout-ms 15000 \
    --checkpoint-dir "$DIR/ckpt" --restore \
    >"$DIR/serve_chaos2.log" 2>&1 &
PID=$!
up=$(await "$DIR/serve_chaos2.log" 's/.*ingest=\([0-9]*\).*/\1/p')
[ -n "$up" ] || fail "restored serve never listened (see $DIR/serve_chaos2.log)"
grep -q "restored 2 streams" "$DIR/serve_chaos2.log" \
    || fail "restore line missing"

# End s1: a named stream whose client sends an empty trace ends cleanly.
: >"$DIR/empty.csv"
timeout 60 "$CLI" send --to "127.0.0.1:$port" --trace "$DIR/empty.csv" \
    --dataset ccd-net --scale test --stream-name s1 \
    >"$DIR/send_s1.log" 2>&1 \
    || fail "ending s1 failed (see $DIR/send_s1.log)"

timeout 120 "$CLI" send --to "127.0.0.1:$port" --trace "$DIR/trace.csv" \
    --dataset ccd-net --scale test --stream-name s0 \
    --retries 50 --backoff-ms 100 >"$DIR/send_chaos2.log" 2>&1 \
    || fail "phase-2 send failed (see $DIR/send_chaos2.log)"
await_exit "$PID" "restored serve" "$DIR/serve_chaos2.log"
wait "$PID" || fail "restored serve exited non-zero"
PID=
# The restored server must have answered the reconnect with a real
# committed position (resumes >= 1 in the net summary).
grep -Eq "net: .*resumes=[1-9]" "$DIR/serve_chaos2.log" \
    || fail "restored serve never resumed a stream (see $DIR/serve_chaos2.log)"

# ---- The contract: identical per-stream totals, faults and all ----
got=$(stream_totals "$DIR/serve_chaos2.log")
[ -n "$got" ] || fail "restored run printed no stream totals"
[ "$got" = "$ref" ] \
    || fail "totals diverged: reference '$ref' vs chaos '$got'"

echo "PASS"
exit 0
