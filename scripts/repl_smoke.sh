#!/usr/bin/env bash
# End-to-end replication smoke over loopback: a larp_cli leader (serve port
# + replication port, both ephemeral), a follower bootstrapping from it, and
# a loadgen that observes against the leader while reading predictions from
# the follower.  Asserts the follower actually applied replicated frames and
# that every process exits cleanly.
# Usage: scripts/repl_smoke.sh [path-to-larp_cli] [workdir]
set -euo pipefail

CLI="${1:-build/tools/larp_cli}"
WORK="${2:-$(mktemp -d "${TMPDIR:-/tmp}/larp_repl_smoke.XXXXXX")}"

if [ ! -x "$CLI" ]; then
  echo "error: $CLI not found or not executable; build larp_cli first" >&2
  exit 1
fi
# A reused workdir (ctest passes a fixed one) must not hand the leader or
# follower an earlier run's data directory: the smoke covers a fresh pair.
rm -rf "$WORK/leader" "$WORK/follower"
mkdir -p "$WORK"
LEADER_LOG="$WORK/leader.log"
FOLLOWER_LOG="$WORK/follower.log"

cleanup() {
  [ -n "${FOLLOWER_PID:-}" ] && kill "$FOLLOWER_PID" 2>/dev/null || true
  [ -n "${LEADER_PID:-}" ] && kill "$LEADER_PID" 2>/dev/null || true
  wait 2>/dev/null || true
}
trap cleanup EXIT

# Polls a log for "<tag> ...:<port>" (the CLI flushes these lines as soon as
# the sockets are bound) and echoes the port.
wait_port() { # log tag
  local log="$1" tag="$2" line=""
  for _ in $(seq 1 100); do
    line=$(grep -m1 "^$tag " "$log" 2>/dev/null || true)
    if [ -n "$line" ]; then
      echo "${line##*:}"
      return 0
    fi
    sleep 0.1
  done
  echo "error: no '$tag' line in $log after 10s" >&2
  cat "$log" >&2 || true
  return 1
}

"$CLI" replicate --data-dir "$WORK/leader" --port 0 --repl-port 0 \
  --shards 4 --max-seconds 20 >"$LEADER_LOG" 2>&1 &
LEADER_PID=$!
LEADER_PORT=$(wait_port "$LEADER_LOG" "listening on")
REPL_PORT=$(wait_port "$LEADER_LOG" "replicating on")

"$CLI" follow --data-dir "$WORK/follower" --leader-port "$REPL_PORT" \
  --port 0 --max-seconds 18 >"$FOLLOWER_LOG" 2>&1 &
FOLLOWER_PID=$!
FOLLOWER_PORT=$(wait_port "$FOLLOWER_LOG" "listening on")

"$CLI" loadgen --port "$LEADER_PORT" --read-from-follower "$FOLLOWER_PORT" \
  --series 8 --steps 5 --batch 8

# Let the last acks/heartbeats land, then bring both ends down in order.
# SIGTERM is handled (the serve loop exits and prints stats), so a clean
# shutdown still reports rc=0.
sleep 1
FOLLOWER_RC=0; LEADER_RC=0
kill "$FOLLOWER_PID"; wait "$FOLLOWER_PID" || FOLLOWER_RC=$?; FOLLOWER_PID=""
kill "$LEADER_PID"; wait "$LEADER_PID" || LEADER_RC=$?; LEADER_PID=""
[ "$FOLLOWER_RC" -eq 0 ] || { echo "follower exited rc=$FOLLOWER_RC" >&2; cat "$FOLLOWER_LOG" >&2; exit 1; }
[ "$LEADER_RC" -eq 0 ] || { echo "leader exited rc=$LEADER_RC" >&2; cat "$LEADER_LOG" >&2; exit 1; }

# The follower must have applied a non-zero replicated frame count and never
# fallen into the unrecoverable re-bootstrap state.
grep -E "replication +[1-9][0-9]* frames applied" "$FOLLOWER_LOG" >/dev/null || {
  echo "error: follower applied no frames" >&2
  cat "$FOLLOWER_LOG" >&2
  exit 1
}
if grep -q "FAILED" "$FOLLOWER_LOG"; then
  echo "error: follower reported failure" >&2
  cat "$FOLLOWER_LOG" >&2
  exit 1
fi

echo "repl smoke ok: leader $LEADER_PORT, repl $REPL_PORT, follower $FOLLOWER_PORT"
