#!/usr/bin/env bash
# wlpad end-to-end smoke: boot the daemon, drive every benchmark
# through it cold and warm, and assert the cache contract:
#
#   1. every cold request misses, every warm request hits (warm = 100%
#      program-level cache hits);
#   2. warm responses carry byte-identical snapshot JSON — including
#      the embedded checker diagnostics — to their cold counterparts;
#   3. POST /query answers cold, then warm, GET /query answers warm,
#      and after an edit POST answers cold again, always with the
#      answers Result.PointsToAt gives;
#   4. a single-procedure edit grafts against the warm baseline (meta
#      carries incremental stats with no fallback), dirties exactly the
#      edited procedure and its transitive callers, and yields a
#      snapshot byte-identical to a cold daemon's analysis of the edited
#      program;
#   5. a daemon with a 200ms -timeout answers a request whose checking
#      runs past the budget with 422 naming the budget, and then still
#      serves a benchmark with a snapshot.
#
# Writes a /metrics snapshot to $METRICS_OUT (default
# wlpad-metrics.json) for upload as a CI artifact. Requires jq + curl.
set -euo pipefail

cd "$(dirname "$0")/.."
ADDR="127.0.0.1:${WLPAD_PORT:-18372}"
METRICS_OUT="${METRICS_OUT:-wlpad-metrics.json}"
work=$(mktemp -d)
trap 'kill "$daemon_pid" 2>/dev/null || true; wait "$daemon_pid" 2>/dev/null || true; rm -rf "$work"' EXIT

go build -o "$work/wlpad" ./cmd/wlpad
"$work/wlpad" serve -addr "$ADDR" -cache-dir "$work/cache" -log json 2>"$work/wlpad.log" &
daemon_pid=$!

for _ in $(seq 1 50); do
    if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then break; fi
    sleep 0.2
done
curl -sf "http://$ADDR/healthz" >/dev/null || { echo "wlpad did not come up"; cat "$work/wlpad.log"; exit 1; }

analyze() { # analyze <file> <out>; request includes checker diagnostics
    jq -n --rawfile src "$1" --arg entry "$(basename "$1")" \
        '{files: {($entry): $src}, entry: $entry, diagnostics: true}' |
        curl -sf -d @- "http://$ADDR/analyze" >"$2"
}

benches=0
for f in internal/workload/testdata/*.c; do
    case "$f" in */bug_*) continue ;; esac
    name=$(basename "$f" .c)
    benches=$((benches + 1))

    analyze "$f" "$work/cold.json"
    [ "$(jq -r .meta.cache "$work/cold.json")" = miss ] ||
        { echo "$name: cold request did not miss"; exit 1; }

    analyze "$f" "$work/warm.json"
    [ "$(jq -r .meta.cache "$work/warm.json")" = hit ] ||
        { echo "$name: warm request did not hit"; exit 1; }

    # Snapshot (diagnostics included) must be byte-identical cold vs warm.
    jq -c .snapshot "$work/cold.json" >"$work/cold.snap"
    jq -c .snapshot "$work/warm.json" >"$work/warm.snap"
    cmp -s "$work/cold.snap" "$work/warm.snap" ||
        { echo "$name: warm snapshot differs from cold"; exit 1; }
    jq -e '.snapshot.has_diags == true' "$work/cold.json" >/dev/null ||
        { echo "$name: snapshot carries no diagnostics"; exit 1; }
    echo "ok: $name (cold miss, warm hit, snapshots identical)"
done
[ "$benches" -gt 0 ] || { echo "no benchmark sources found"; exit 1; }

# Warm pass = 100% program-level hits: exactly one miss and one hit per
# benchmark so far.
curl -sf "http://$ADDR/metrics" >"$work/metrics.json"
jq -e --argjson n "$benches" \
    '.requests.misses == $n and .requests.hits == $n and .requests.errors == 0' \
    "$work/metrics.json" >/dev/null ||
    { echo "hit/miss counters off:"; jq .requests "$work/metrics.json"; exit 1; }
echo "ok: warm pass served entirely from cache ($benches/$benches hits)"

# Single-procedure edit: editing h must dirty exactly h (its own IR
# changed) and main (its transitive closure includes h), while f and g
# keep their PTFs. Point queries on the same file run before and after
# the edit.
cat >"$work/edit.c" <<'EOF'
int gx, gy;
int *fp, *gp;
int hx, hy;
int *hp;
void g(void) { gp = &gy; }
void f(void) { fp = &gx; g(); }
void h(void) { hp = &hx; }
int main(void) { f(); h(); return 0; }
EOF
analyze "$work/edit.c" "$work/base.json"
[ "$(jq -r .meta.cache "$work/base.json")" = miss ] || { echo "edit base did not miss"; exit 1; }

query() { # query <out>; POST /query for hp and fp at main's line on edit.c
    jq -n --rawfile src "$work/edit.c" \
        '{files: {"edit.c": $src}, entry: "edit.c",
          queries: [{proc: "main", line: 8, expr: "hp"}, {proc: "main", line: 8, expr: "fp"}]}' |
        curl -sf -d @- "http://$ADDR/query" >"$1"
}
get_hp() { # get_hp <out>; GET /query for hp at main's line on edit.c
    curl -sf "http://$ADDR/query?entry=edit.c&proc=main&line=8&expr=hp" >"$1"
}
expect() { # expect <file> <jq filter> <what>
    jq -e "$2" "$1" >/dev/null || { echo "$3 off:"; cat "$1"; exit 1; }
}
query "$work/q_cold.json"
expect "$work/q_cold.json" '.meta.cache == "cold" and .meta.demand.queries == 2
    and [.answers[].points_to] == [["hx"],["gx"]]' "cold POST /query"
query "$work/q_warm.json"
expect "$work/q_warm.json" '.meta.cache == "warm"
    and [.answers[].points_to] == [["hx"],["gx"]]' "warm POST /query"
get_hp "$work/q_get.json"
expect "$work/q_get.json" '.meta.cache == "warm" and .answers[0].points_to == ["hx"]' "GET /query"
echo "ok: /query answered cold, then warm (POST and GET)"

sed 's/hp = &hx;/hp = \&hy;/' "$work/edit.c" >"$work/edit2.c" && mv "$work/edit2.c" "$work/edit.c"
analyze "$work/edit.c" "$work/edited.json"

# The edited miss must have run through the incremental engine: the
# base miss registered a baseline for edit.c, so the graft reconverges
# only the dirty cone {h, main} while {f, g} keep their PTFs.
expect "$work/edited.json" '.meta.cache == "miss"
    and .meta.incremental != null
    and (.meta.incremental.fallback // "") == ""
    and .meta.incremental.dirty == ["h","main"]
    and .meta.incremental.dirty_procs == 2
    and .meta.incremental.clean_procs == 2' "edited miss graft"
echo "ok: edited miss grafted, dirtying exactly {h, main} and keeping {f, g}"

query "$work/q_edited.json"
expect "$work/q_edited.json" '.meta.cache == "cold"
    and [.answers[].points_to] == [["hy"],["gx"]]' "POST /query after the edit"
get_hp "$work/q_edited_get.json"
expect "$work/q_edited_get.json" '.meta.cache == "warm" and .answers[0].points_to == ["hy"]' "GET /query after the edit"
echo "ok: /query after the edit answered cold with the edited points-to set"

# Bit-identity of the graft: a second daemon with an empty cache and no
# baseline must produce the same snapshot bytes for the edited program.
ADDR2="127.0.0.1:${WLPAD_PORT2:-18373}"
"$work/wlpad" serve -addr "$ADDR2" -cache-dir "$work/cache2" -log json 2>"$work/wlpad2.log" &
daemon2_pid=$!
trap 'kill "$daemon_pid" "$daemon2_pid" 2>/dev/null || true; wait "$daemon_pid" "$daemon2_pid" 2>/dev/null || true; rm -rf "$work"' EXIT
for _ in $(seq 1 50); do
    if curl -sf "http://$ADDR2/healthz" >/dev/null 2>&1; then break; fi
    sleep 0.2
done
jq -n --rawfile src "$work/edit.c" \
    '{files: {"edit.c": $src}, entry: "edit.c", diagnostics: true}' |
    curl -sf -d @- "http://$ADDR2/analyze" >"$work/edited_cold.json"
jq -e '.meta.incremental == null' "$work/edited_cold.json" >/dev/null ||
    { echo "fresh daemon unexpectedly grafted"; exit 1; }
jq -c .snapshot "$work/edited.json" >"$work/edited.snap"
jq -c .snapshot "$work/edited_cold.json" >"$work/edited_cold.snap"
cmp -s "$work/edited.snap" "$work/edited_cold.snap" ||
    { echo "grafted snapshot differs from cold daemon's"; exit 1; }
kill "$daemon2_pid"; wait "$daemon2_pid" 2>/dev/null || true
echo "ok: grafted snapshot byte-identical to a cold daemon's"

# The -timeout budget bounds the checker too: a generated program whose
# contexts reach fopen and getenv analyzes in tens of milliseconds but
# takes seconds to check, so with diagnostics it must fail with 422 and
# the named timeout error, and the daemon must keep serving.
ADDR3="127.0.0.1:${WLPAD_PORT3:-18374}"
"$work/wlpad" serve -addr "$ADDR3" -timeout 200ms -log json 2>"$work/wlpad3.log" &
daemon3_pid=$!
trap 'kill "$daemon_pid" "$daemon3_pid" 2>/dev/null || true; wait "$daemon_pid" "$daemon3_pid" 2>/dev/null || true; rm -rf "$work"' EXIT
for _ in $(seq 1 50); do
    if curl -sf "http://$ADDR3/healthz" >/dev/null 2>&1; then break; fi
    sleep 0.2
done
go run ./cmd/cgen -seed 20 -funcs 6 -stmts 10 -features all >"$work/slow.c"
status=$(jq -n --rawfile src "$work/slow.c" \
    '{files: {"slow.c": $src}, entry: "slow.c", diagnostics: true}' |
    curl -s -o "$work/slow.json" -w '%{http_code}' -d @- "http://$ADDR3/analyze")
[ "$status" = 422 ] && jq -e '.error | contains("wall-clock budget exceeded")' "$work/slow.json" >/dev/null ||
    { echo "over-budget check answered $status:"; cat "$work/slow.json"; exit 1; }
jq -n --rawfile src internal/workload/testdata/allroots.c \
    '{files: {"allroots.c": $src}, entry: "allroots.c", diagnostics: true}' |
    curl -sf -d @- "http://$ADDR3/analyze" >"$work/after.json" ||
    { echo "daemon did not serve after a timeout"; exit 1; }
jq -e '.snapshot.has_diags == true' "$work/after.json" >/dev/null ||
    { echo "post-timeout response carries no snapshot"; exit 1; }
kill "$daemon3_pid"; wait "$daemon3_pid" 2>/dev/null || true
echo "ok: over-budget check failed with 422, then the daemon served allroots"

curl -sf "http://$ADDR/metrics" >"$METRICS_OUT"
jq -e '.incremental.grafts >= 1 and .incremental.fallbacks == 0' "$METRICS_OUT" >/dev/null ||
    { echo "incremental counters off:"; jq .incremental "$METRICS_OUT"; exit 1; }
kill "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
echo "ok: metrics snapshot written to $METRICS_OUT"
