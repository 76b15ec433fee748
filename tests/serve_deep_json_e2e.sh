#!/bin/sh
# Hostile nesting: a request line of 900 000 '[' (under the 1 MiB line
# cap) must get a "malformed" reply and leave bf_serve running, both in
# stdin mode and over --socket. Run by ctest as
#   serve_deep_json_e2e.sh <bf_serve> <bf_loadgen>
set -eu

BF_SERVE=$1
BF_LOADGEN=$2
WORK=$(mktemp -d "${TMPDIR:-/tmp}/bf_deep_json_e2e.XXXXXX")
SERVE_PID=""
cleanup() {
  [ -n "$SERVE_PID" ] && kill -9 "$SERVE_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "serve_deep_json_e2e: FAIL: $1" >&2
  [ -f "$WORK/serve.log" ] && cat "$WORK/serve.log" >&2
  exit 1
}

mkdir "$WORK/models"
{ head -c 900000 /dev/zero | tr '\0' '['; echo; } > "$WORK/deep.ndjson"

# --- stdin mode: malformed reply, then the next request is served ---
{ cat "$WORK/deep.ndjson"; echo '{"cmd":"stats"}'; } > "$WORK/requests"
rc=0
"$BF_SERVE" --model-dir "$WORK/models" < "$WORK/requests" \
    > "$WORK/replies" 2>"$WORK/serve.log" || rc=$?
[ "$rc" -eq 0 ] || fail "stdin bf_serve exited $rc"
[ "$(wc -l < "$WORK/replies")" -eq 2 ] || fail "expected 2 reply lines"
case "$(sed -n 1p "$WORK/replies")" in
  *'"ok":false'*malformed*nesting*) ;;
  *) fail "deep line was not rejected as malformed: $(sed -n 1p "$WORK/replies")" ;;
esac
case "$(sed -n 2p "$WORK/replies")" in
  *'"ok":true'*) ;;
  *) fail "stats after the deep line failed: $(sed -n 2p "$WORK/replies")" ;;
esac

# --- socket mode: the server survives and keeps answering ---
SOCK="$WORK/bf.sock"
"$BF_SERVE" --model-dir "$WORK/models" --socket "$SOCK" \
    2>"$WORK/serve.log" &
SERVE_PID=$!
tries=0
while [ ! -S "$SOCK" ]; do
  tries=$((tries + 1))
  [ "$tries" -gt 100 ] && fail "server never bound $SOCK"
  kill -0 "$SERVE_PID" 2>/dev/null || fail "server died during startup"
  sleep 0.1
done
# bf_loadgen exits non-zero on an error reply, which is the point here.
"$BF_LOADGEN" --socket "$SOCK" --trace "$WORK/deep.ndjson" \
    --requests 1 --conns 1 --out "$WORK/bench.json" >/dev/null || true
grep -q '"errors":1' "$WORK/bench.json" \
    || fail "deep line did not get one error reply: $(cat "$WORK/bench.json")"
kill -0 "$SERVE_PID" 2>/dev/null || fail "server died on the deep line"
"$BF_LOADGEN" --socket "$SOCK" --oneshot '{"cmd":"stats"}' >/dev/null \
    || fail "stats after the deep line failed"

kill -TERM "$SERVE_PID"
rc=0
wait "$SERVE_PID" || rc=$?
[ "$rc" -eq 0 ] || fail "drain exited $rc, want 0"
SERVE_PID=""

echo "serve_deep_json_e2e: OK"
