#!/bin/sh
# Job-server end-to-end smoke, used by CI and local runs.
#
# Drives a real `gatest serve` daemon over HTTP with curl:
#
#   * submits three concurrent jobs (two s27 seeds and an s298) and
#     byte-compares every served result against the same flags run through
#     plain `gatest atpg --result-json` — the serving contract is that the
#     daemon never changes a single result byte;
#   * then starts a second daemon with a state directory and two jobs,
#     SIGTERMs it once one of them waits `preempted` (its generator
#     suspended in memory), and verifies the drain protocol end to end: the
#     manifest and both checkpoints land on disk, a restarted daemon
#     resumes both jobs, and both final results are still byte-identical to
#     the standalone runs.
#
# The daemon picks its own free port (--addr 127.0.0.1:0 + --port-file), so
# the script is safe to run concurrently with anything.
set -eu

cd "$(dirname "$0")/.."

if ! command -v curl >/dev/null 2>&1; then
    echo "warning: curl not available; skipping the serve smoke" >&2
    exit 0
fi

cargo build --release -p gatest-cli

tmpdir="$(mktemp -d)"
server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
    rm -rf "$tmpdir"
}
trap cleanup EXIT

# wait_port FILE -> echoes the address once the daemon has written it
wait_port() {
    i=0
    while [ ! -s "$1" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "FAIL: server did not write its port file" >&2
            exit 1
        fi
        sleep 0.1
    done
    cat "$1"
}

# submit ADDR BODY -> echoes the new job id
submit() {
    curl -sf -X POST --data "$2" "http://$1/jobs" |
        sed -n 's/.*"id":\([0-9]*\).*/\1/p'
}

# fetch_result ADDR ID OUT -> polls until the job's result is served
fetch_result() {
    i=0
    while ! curl -sf "http://$1/jobs/$2/result" -o "$3" 2>/dev/null; do
        i=$((i + 1))
        if [ "$i" -gt 1200 ]; then
            echo "FAIL: job $2 never produced a result" >&2
            curl -s "http://$1/jobs/$2" >&2 || true
            exit 1
        fi
        if curl -s "http://$1/jobs/$2" | grep -q '"state":"failed"'; then
            echo "FAIL: job $2 failed" >&2
            curl -s "http://$1/jobs/$2" >&2
            exit 1
        fi
        sleep 0.1
    done
}

# --- Phase 1: three concurrent jobs, every result byte-identical ---------

target/release/gatest serve --addr 127.0.0.1:0 --slice-ticks 8 \
    --port-file "$tmpdir/port" > "$tmpdir/serve1.log" 2>&1 &
server_pid=$!
addr="$(wait_port "$tmpdir/port")"
echo "serve smoke: daemon on $addr"

id1="$(submit "$addr" '{"circuit":"s27","seed":3}')"
id2="$(submit "$addr" '{"circuit":"s298","seed":5,"sample":80,"priority":7}')"
id3="$(submit "$addr" '{"circuit":"s27","seed":9,"priority":2}')"
curl -sf "http://$addr/healthz" | grep -q '"status":"ok"'
curl -sf "http://$addr/metrics" | grep -q 'gatest_serve_jobs_submitted_total 3'

fetch_result "$addr" "$id1" "$tmpdir/serve-1.json"
fetch_result "$addr" "$id2" "$tmpdir/serve-2.json"
fetch_result "$addr" "$id3" "$tmpdir/serve-3.json"

target/release/gatest atpg s27 --seed 3 \
    --result-json "$tmpdir/plain-1.json" --out /dev/null -q
target/release/gatest atpg s298 --seed 5 --sample 80 \
    --result-json "$tmpdir/plain-2.json" --out /dev/null -q
target/release/gatest atpg s27 --seed 9 \
    --result-json "$tmpdir/plain-3.json" --out /dev/null -q

cmp "$tmpdir/serve-1.json" "$tmpdir/plain-1.json"
cmp "$tmpdir/serve-2.json" "$tmpdir/plain-2.json"
cmp "$tmpdir/serve-3.json" "$tmpdir/plain-3.json"
echo "ok   3 concurrent served results byte-identical to standalone runs"

kill -TERM "$server_pid"
wait "$server_pid"
server_pid=""

# --- Phase 2: SIGTERM mid-job, drain, restart, resume --------------------

statedir="$tmpdir/state"
: > "$tmpdir/port"
target/release/gatest serve --addr 127.0.0.1:0 --slice-ticks 4 \
    --state-dir "$statedir" --port-file "$tmpdir/port" \
    > "$tmpdir/serve2.log" 2>&1 &
server_pid=$!
addr="$(wait_port "$tmpdir/port")"

long_id="$(submit "$addr" '{"circuit":"s1423","seed":2,"sample":60}')"
side_id="$(submit "$addr" '{"circuit":"s298","seed":5,"sample":80}')"

# Wait until both jobs have had a slice and one of them waits preempted
# (suspended in memory, not running), then SIGTERM the daemon.
i=0
until states="$(curl -s "http://$addr/jobs")" &&
    ! echo "$states" | grep -q '"state":"queued"' &&
    echo "$states" | grep -q '"state":"preempted"'; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "FAIL: jobs $long_id and $side_id never took turns" >&2
        echo "$states" >&2
        exit 1
    fi
    sleep 0.1
done
kill -TERM "$server_pid"
wait "$server_pid"
server_pid=""

test -f "$statedir/queue.jsonl"
grep -q '"state":"preempted"' "$statedir/queue.jsonl"
test -f "$statedir/job-$long_id.ck"
test -f "$statedir/job-$side_id.ck"
echo "ok   SIGTERM drained: manifest + both checkpoints persisted mid-job"

# Restart over the same state dir: the job must resume and complete.
: > "$tmpdir/port"
target/release/gatest serve --addr 127.0.0.1:0 --slice-ticks 4 \
    --state-dir "$statedir" --port-file "$tmpdir/port" \
    > "$tmpdir/serve3.log" 2>&1 &
server_pid=$!
addr="$(wait_port "$tmpdir/port")"

fetch_result "$addr" "$long_id" "$tmpdir/serve-long.json"
fetch_result "$addr" "$side_id" "$tmpdir/serve-side.json"
target/release/gatest atpg s1423 --seed 2 --sample 60 \
    --result-json "$tmpdir/plain-long.json" --out /dev/null -q
target/release/gatest atpg s298 --seed 5 --sample 80 \
    --result-json "$tmpdir/plain-side.json" --out /dev/null -q
cmp "$tmpdir/serve-long.json" "$tmpdir/plain-long.json"
cmp "$tmpdir/serve-side.json" "$tmpdir/plain-side.json"
echo "ok   both drained jobs resumed on restart, results byte-identical"

kill -TERM "$server_pid"
wait "$server_pid"
server_pid=""
echo "serve smoke passed"
