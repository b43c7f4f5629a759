#!/usr/bin/env bash
# End-to-end smoke of the validation service's fault-tolerance contract.
#
#   tools/server_smoke.sh [BUILD_DIR]
#
# Phase 1: start validate_server in --chaos mode (deterministically
#   SIGKILLs ~1/3 of first worker attempts) and, while a corpus batch is
#   in flight, best-effort kill -9 the live job processes and, every other
#   round, the fork server helpers that spawn them — the client must still
#   see exactly one verdict-or-classified-failure per job.
# Phase 2: SIGTERM the server; it must exit with the distinct graceful
#   code (75), leave a nonempty cache snapshot on disk, and leave no
#   helper or spare child of its own behind.
# Phase 3: restart the server on the same snapshot, run the same batch,
#   write the --bench-out dump, and gate it with check_bench_baseline.py
#   --group server: full coverage, zero failures, and a warm-cache hit
#   rate at or above the BENCH_BASELINE.json floor.
# Phase 4: stop the restarted server via the shutdown op (exit 0), again
#   leaving no process behind.
set -u

BUILD_DIR=${1:-build}
SERVER=$BUILD_DIR/examples/validate_server
CLIENT=$BUILD_DIR/examples/validate_client
BASELINE=$(dirname "$0")/../BENCH_BASELINE.json

WORK=$(mktemp -d /tmp/pseq-server-smoke-XXXXXX)
SOCK=$WORK/pseq.sock
SNAP=$WORK/cache.snap
SERVER_PID=

fail() {
  echo "server_smoke: FAIL: $*" >&2
  [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null
  exit 1
}

cleanup() {
  [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

[ -x "$SERVER" ] || fail "$SERVER not built"
[ -x "$CLIENT" ] || fail "$CLIENT not built"

# Live processes of this run other than the server itself: its fork
# server helpers and their children keep the server's command line, which
# names this run's socket. Zombies are dead already and do not count.
stray_processes() {
  for P in $(pgrep -f -- "--socket $SOCK"); do
    [ "$P" = "$SERVER_PID" ] && continue
    case $(ps -o stat= -p "$P" 2>/dev/null) in
    '' | Z*) continue ;;
    esac
    echo "$P"
  done
}

wait_for_socket() {
  for _ in $(seq 1 100); do
    "$CLIENT" --socket "$SOCK" --ping >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  return 1
}

# --- Phase 1: chaos batch with external worker kills -----------------------
"$SERVER" --socket "$SOCK" --snapshot "$SNAP" --workers 2 --chaos &
SERVER_PID=$!
wait_for_socket || fail "server did not come up"

# Murder loop: children of the server are its workers' fork server helpers,
# and a helper's children are its in-flight job and its idle spare (the
# next job's child, forked ahead of time). Killing a job is a crashed
# attempt; killing a spare makes the next delivery find it dead and fork a
# fresh one; killing a helper also loses its job and forces a respawn. All
# three are failures the retry machinery must absorb. The loop does not
# nap: a job takes under a millisecond, so only a tight loop lands kills
# while the batch runs.
(
  for I in $(seq 1 80); do
    for HELPER in $(pgrep -P "$SERVER_PID"); do
      pkill -9 -P "$HELPER" 2>/dev/null
    done
    [ $((I % 2)) -eq 0 ] && pkill -9 -P "$SERVER_PID" 2>/dev/null
  done
) &
KILLER=$!

"$CLIENT" --socket "$SOCK" --quiet --repeat 2 --expect-complete \
  || fail "chaos batch lost or duplicated replies"
wait "$KILLER" 2>/dev/null
echo "server_smoke: chaos batch fully covered"

# --- Phase 2: graceful SIGTERM drain ---------------------------------------
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
STATUS=$?
[ "$STATUS" -eq 75 ] || fail "SIGTERM exit was $STATUS, expected 75"
[ -s "$SNAP" ] || fail "no cache snapshot written at $SNAP"
SERVER_PID=
STRAYS=$(stray_processes)
[ -z "$STRAYS" ] || fail "processes left after the SIGTERM drain:" $STRAYS
echo "server_smoke: graceful drain OK (exit 75, snapshot $(wc -c <"$SNAP") bytes)"

# --- Phase 3: warm restart, cached batch, bench gate -----------------------
"$SERVER" --socket "$SOCK" --snapshot "$SNAP" --workers 2 &
SERVER_PID=$!
wait_for_socket || fail "restarted server did not come up"

"$CLIENT" --socket "$SOCK" --quiet --expect-complete \
  --bench-out "$WORK/bench.json" \
  || fail "warm batch lost or duplicated replies"
python3 "$(dirname "$0")/check_bench_baseline.py" \
  --baseline "$BASELINE" --group server "$WORK/bench.json" \
  || fail "bench gate rejected the warm batch"

# --- Phase 4: shutdown op --------------------------------------------------
"$CLIENT" --socket "$SOCK" --shutdown >/dev/null \
  || fail "shutdown op not acknowledged"
wait "$SERVER_PID"
STATUS=$?
SERVER_PID=
[ "$STATUS" -eq 0 ] || fail "shutdown-op exit was $STATUS, expected 0"
STRAYS=$(stray_processes)
[ -z "$STRAYS" ] || fail "processes left after the shutdown op:" $STRAYS

echo "server_smoke: OK"
