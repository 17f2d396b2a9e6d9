#!/usr/bin/env bash
# Server smoke test: boot topod on an ephemeral port against a
# synthetic dataset, run one NDJSON query, one two-term conjunction
# (byte-identical with its terms swapped, explain "plan=conjunction",
# no more node accesses than either term alone) and a /metrics scrape,
# then assert the daemon drains cleanly on SIGTERM. A second leg kill -9s a
# durable topod mid-traffic and asserts the restart recovers every
# acknowledged mutation. A third leg STR bulk-loads a durable topod,
# streams more rectangles through POST /v1/bulk, kill -9s it, and
# asserts the restart replays the whole batch. A fourth leg bulk-loads
# two indexes, streams a meet+overlap /v1/join, checks the pair count
# against topoquery ground truth, sends the same join twenty times more
# and cmp's every sorted body against the first (the join keeps sweep
# orders beside the nodes it has swept), inserts into the left index and
# asserts the answer gains exactly the pairs topoquery predicts for the
# new object and changes no other line, and asserts 429 under saturation. A
# fifth leg checkpoints a durable topod grown insert by insert, asserts
# the data directory holds exactly main.flat + one main.wal.<gen>,
# asserts the next boot adopts the checkpoint image as its tree before
# any write (backend=flat) with the same answers, that a SIGTERM of that
# unmutated process leaves main.flat byte for byte what it was, and that
# the first /v1/insert of the boot after leaves the height and a fixed
# query's node_accesses where the first process had them (the tree is
# the checkpointed one, not a rebuild) — then corrupts the image and
# asserts the next boot answers 503 with the reason and counts the
# checksum failure instead of guessing. A sixth leg subscribes
# topoquery -watch to a durable topod, mutates through /v1/insert and
# /v1/bulk, asserts the enter/exit event sequence arrives, and checks
# SIGTERM ends the stream with a terminal drain line. A seventh leg
# boots a primary + -follow replica pair, checks the replica serves
# the primary's data and 403s writes, SIGTERMs the still-following
# replica beside a primary write (exit 0, bye inside -drain, no *.tmp)
# and restarts it on the same directory, kill -9s the primary, promotes
# the replica via POST /v1/promote, and asserts a write then succeeds.
# An eighth leg boots `-shards 4` next to a `-shards 1` twin over the
# same dataset, asserts identical query/knn/join counts through the
# scatter-gather router, then kill -9s the sharded daemon and asserts
# the reboot (without the flag) recovers every tile. A ninth leg
# asserts a window answer of over 100 lines costs at most 3 stream
# flushes, repeats it against a `-cache-size` topod, asserts the repeat
# is byte-identical and increments topod_cache_hits_total, then mutates
# and asserts the same query misses (generation-keyed invalidation)
# and sees the new rectangle. A tenth leg sends one window query forty
# times to a `-cache-size 0` topod — whose leaves render their
# rectangles' wire text once and answer from it afterwards — and cmp's
# every body, stats trailer included, against the first, then inserts a
# rectangle into a leaf those answers came from and does it again,
# asserting the new object's line carries its own coordinates.
set -euo pipefail

TOPOD="${1:?usage: smoke.sh path/to/topod path/to/topoquery path/to/datagen}"
TOPOQUERY="${2:?usage: smoke.sh path/to/topod path/to/topoquery path/to/datagen}"
DATAGEN="${3:?usage: smoke.sh path/to/topod path/to/topoquery path/to/datagen}"
LOG="$(mktemp)"
DATADIR="$(mktemp -d)"
cleanup() {
  kill -9 "$PID" 2>/dev/null || true
  kill -9 "$PID2" 2>/dev/null || true
  kill -9 "$PID3" 2>/dev/null || true
  kill -9 "$PID4" 2>/dev/null || true
  kill -9 "$PID5" 2>/dev/null || true
  kill -9 "$PID6" 2>/dev/null || true
  kill -9 "$PID7" 2>/dev/null || true
  kill -9 "$PID8" 2>/dev/null || true
  kill -9 "$PID9" 2>/dev/null || true
  kill -9 "$PID10" 2>/dev/null || true
  kill -9 "$PID11" 2>/dev/null || true
  kill -9 "$PID12" 2>/dev/null || true
  kill -9 "$CURLPID" 2>/dev/null || true
  kill -9 "$WATCHPID" 2>/dev/null || true
  rm -rf "$LOG" "$LOG2" "$LOG3" "$LOG4" "$LOG5" "$LOG6" "$LOG7" "$LOG8" "$LOG9" \
    "$LOG10" "$LOG11" "$LOG12" "$LOG13" "$LOG14" "$LOG15" "$LOG16" "$LOG17" "$WLOG" "$BULK" "$WBULK" \
    "$LEFT" "$RIGHT" "$JFIRST" "$JNEXT" "$NEWOBJ" "$HDRS" "$TEXTDIR" "$DATADIR" "$DATADIR2" "$DATADIR3" "$DATADIR4" \
    "$DATADIR5" "$DATADIR6" "$DATADIR7" "$FLATCOPY" 2>/dev/null || true
}
PID="" PID2="" PID3="" PID4="" PID5="" PID6="" PID7="" PID8="" PID9="" PID10="" PID11="" PID12=""
CURLPID="" WATCHPID=""
LOG2="" LOG3="" LOG4="" LOG5="" LOG6="" LOG7="" LOG8="" LOG9="" LOG10="" LOG11=""
LOG12="" LOG13="" LOG14="" LOG15="" LOG16="" LOG17="" WLOG="" BULK="" WBULK="" LEFT="" RIGHT="" HDRS=""
JFIRST="" JNEXT="" NEWOBJ=""
TEXTDIR=""
DATADIR2="" DATADIR3="" DATADIR4="" DATADIR5="" DATADIR6="" DATADIR7="" FLATCOPY=""

# wait_listen LOGFILE: echo the address once the daemon logs it.
wait_listen() {
  local addr=""
  for _ in $(seq 1 100); do
    addr="$(sed -n 's/^topod: listening on //p' "$1" | head -1)"
    [ -n "$addr" ] && { echo "$addr"; return 0; }
    sleep 0.1
  done
  return 1
}

# wait_line FILE PATTERN: poll until a line matching the pattern
# appears in the file (events arrive asynchronously after the commit).
wait_line() {
  for _ in $(seq 1 100); do
    grep -q "$2" "$1" 2>/dev/null && return 0
    sleep 0.1
  done
  return 1
}

# wait_ready BASE: poll /readyz until it reports 200.
wait_ready() {
  for _ in $(seq 1 100); do
    curl -sf "$1/readyz" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  return 1
}

# lint_metrics TEXT: the exposition must be well-formed whoever
# registered its families — the rules of internal/server's
# lintExposition: one HELP then TYPE before a family's samples, no
# series twice, histogram buckets cumulative and ending in +Inf, _count
# equal to that bucket.
lint_metrics() {
  echo "$1" | awk '
    function fail(msg) { print "smoke: /metrics line " NR ": " msg > "/dev/stderr"; bad = 1 }
    /^# HELP / { if ($3 in declared) fail("family " $3 " declared twice"); declared[$3] = 1; help = $3; next }
    /^# TYPE / { if ($3 != help) fail("TYPE line without its HELP line"); family = $3; type = $4; help = ""; next }
    /^#/ || /^$/ { next }
    {
      if (help != "") { fail("HELP " help " has no TYPE"); help = "" }
      if ($1 in series) fail("series " $1 " appears twice")
      series[$1] = 1
      name = $1; sub(/[{].*/, "", name)
      labels = substr($1, length(name) + 1); suffix = substr(name, length(family) + 1)
      if (family == "" || index(name, family) != 1) { fail("sample " name " is outside its family"); next }
      if (type != "histogram") { if (suffix != "") fail("sample " name " under " type " " family); next }
      inf_bucket = labels ~ /le="[+]Inf"/
      sub(/,?le="[^"]*"/, "", labels); if (labels == "{}") labels = ""
      key = family labels
      if (suffix == "_bucket") {
        if ($2 + 0 < last[key] + 0) fail("buckets not cumulative at " $1)
        last[key] = $2; if (inf_bucket) inf[key] = $2
      } else if (suffix == "_count") {
        if (!(key in inf) || inf[key] != $2) fail($1 " is not the +Inf bucket")
      } else if (suffix != "_sum") fail("sample " name " under histogram " family)
    }
    END { for (k in last) if (!(k in inf)) { print "smoke: histogram " k " has no +Inf bucket" > "/dev/stderr"; bad = 1 }; exit bad }'
}

"$TOPOD" -gen 2000 -tree rstar -addr 127.0.0.1:0 >"$LOG" 2>&1 &
PID=$!
trap cleanup EXIT

ADDR="$(wait_listen "$LOG")" || {
  echo "smoke: topod never started listening" >&2
  cat "$LOG" >&2
  exit 1
}
BASE="http://$ADDR"

# Capture responses before grepping: `curl | grep -q` races under
# pipefail (grep's early exit SIGPIPEs curl into exit 23).
IDX="$(curl -sf "$BASE/v1/indexes")"
echo "$IDX" | grep -q '"objects":2000' \
  || { echo "smoke: /v1/indexes missing the loaded index: $IDX" >&2; exit 1; }

RESP="$(curl -sf -d '{"relations":["not_disjoint"],"ref":[100,100,300,300]}' "$BASE/v1/query")"
echo "$RESP" | tail -1 | grep -q '"stats"' \
  || { echo "smoke: query stream did not end with a stats line: $RESP" >&2; exit 1; }

# A conjunction is one descent pruned by both terms: the same body
# whichever term is written first, in no more pages than either term
# alone, and explain says so.
RELS1='["not_disjoint"]' REF1='[100,100,300,300]'
RELS2='["inside"]' REF2='[50,50,400,400]'
conjunction() { echo "{\"relations\":$1,\"ref\":$2,\"relations2\":$3,\"ref2\":$4,\"explain\":true}"; }
accesses() { echo "$1" | tail -1 | sed -n 's/.*"node_accesses":\([0-9]*\).*/\1/p'; }
CONJ="$(curl -sf -d "$(conjunction "$RELS1" "$REF1" "$RELS2" "$REF2")" "$BASE/v1/query")"
SWAPPED="$(curl -sf -d "$(conjunction "$RELS2" "$REF2" "$RELS1" "$REF1")" "$BASE/v1/query")"
ALONE1="$(curl -sf -d "{\"relations\":$RELS1,\"ref\":$REF1}" "$BASE/v1/query")"
ALONE2="$(curl -sf -d "{\"relations\":$RELS2,\"ref\":$REF2}" "$BASE/v1/query")"
[ "$(echo "$CONJ" | wc -l)" -gt 1 ] \
  || { echo "smoke: the conjunction matched nothing: $CONJ" >&2; exit 1; }
[ "$CONJ" = "$SWAPPED" ] \
  || { echo "smoke: a conjunction answers differently with its terms swapped" >&2; exit 1; }
echo "$CONJ" | tail -1 | grep -q '"explain":"plan=conjunction terms=2"' \
  || { echo "smoke: conjunction explain: $(echo "$CONJ" | tail -1)" >&2; exit 1; }
CACC="$(accesses "$CONJ")"
[ -n "$CACC" ] && [ "$CACC" -le "$(accesses "$ALONE1")" ] && [ "$CACC" -le "$(accesses "$ALONE2")" ] \
  || { echo "smoke: conjunction read $CACC pages, its terms alone $(accesses "$ALONE1") and $(accesses "$ALONE2")" >&2; exit 1; }

METRICS="$(curl -sf "$BASE/metrics")"
echo "$METRICS" | grep -q '^topod_node_accesses_total [1-9]' \
  || { echo "smoke: /metrics did not fold the query's node accesses" >&2; exit 1; }
lint_metrics "$METRICS" || { echo "smoke: /metrics is malformed" >&2; exit 1; }

kill -TERM "$PID"
if ! wait "$PID"; then
  echo "smoke: topod exited non-zero on SIGTERM" >&2
  cat "$LOG" >&2
  exit 1
fi
grep -q '^topod: bye$' "$LOG" \
  || { echo "smoke: drain message missing from log" >&2; cat "$LOG" >&2; exit 1; }

echo "smoke OK: query + conjunction + metrics + graceful drain"

# ---- crash-recovery leg: kill -9 a durable topod, restart, verify ----

LOG2="$(mktemp)"
"$TOPOD" -gen 500 -tree rtree -data-dir "$DATADIR" -fsync always \
  -addr 127.0.0.1:0 >"$LOG2" 2>&1 &
PID2=$!

ADDR2="$(wait_listen "$LOG2")" || {
  echo "smoke: durable topod never started listening" >&2
  cat "$LOG2" >&2
  exit 1
}
BASE2="http://$ADDR2"
wait_ready "$BASE2" || { echo "smoke: durable topod never became ready" >&2; exit 1; }

# A marker mutation that must survive the crash (fsync=always: the WAL
# record is on disk before the 200).
ACK="$(curl -sf -d '{"oid":424242,"rect":[11111,11111,11112,11112]}' "$BASE2/v1/insert")"
echo "$ACK" | grep -q '"ok":true' \
  || { echo "smoke: marker insert failed: $ACK" >&2; exit 1; }

# Background traffic so the kill lands mid-flight.
for i in $(seq 1 20); do
  curl -s -d '{"relations":["not_disjoint"],"ref":[100,100,300,300]}' \
    "$BASE2/v1/query" >/dev/null 2>&1 &
done
kill -9 "$PID2"
wait "$PID2" 2>/dev/null || true
wait # reap the background curls

# Restart on the same data dir: recovery must replay the marker. A
# fresh log file keeps the listening-address scrape unambiguous.
LOG3="$(mktemp)"
"$TOPOD" -gen 500 -tree rtree -data-dir "$DATADIR" -fsync always \
  -addr 127.0.0.1:0 >"$LOG3" 2>&1 &
PID2=$!

ADDR2="$(wait_listen "$LOG3")" || {
  echo "smoke: restarted topod never started listening" >&2
  cat "$LOG3" >&2
  exit 1
}
BASE2="http://$ADDR2"
wait_ready "$BASE2" || {
  echo "smoke: restarted topod never became ready" >&2
  cat "$LOG3" >&2
  exit 1
}
grep -q '^topod: backend=recovered ' "$LOG3" \
  || { echo "smoke: restart did not report recovery" >&2; cat "$LOG3" >&2; exit 1; }

MARKER="$(curl -sf -d '{"relations":["not_disjoint"],"ref":[11110,11110,11113,11113]}' "$BASE2/v1/query")"
echo "$MARKER" | grep -q '"oid":424242' \
  || { echo "smoke: pre-crash mutation lost after recovery: $MARKER" >&2; cat "$LOG3" >&2; exit 1; }

kill -TERM "$PID2"
if ! wait "$PID2"; then
  echo "smoke: recovered topod exited non-zero on SIGTERM" >&2
  cat "$LOG3" >&2
  exit 1
fi

echo "smoke OK: kill -9 + restart recovered every acknowledged mutation"

# ---- bulk leg: STR startup load + /v1/bulk batch + crash recovery ----

LOG4="$(mktemp)"
DATADIR2="$(mktemp -d)"
"$TOPOD" -gen 1000 -bulk -tree rstar -data-dir "$DATADIR2" -fsync always \
  -addr 127.0.0.1:0 >"$LOG4" 2>&1 &
PID3=$!

ADDR3="$(wait_listen "$LOG4")" || {
  echo "smoke: bulk topod never started listening" >&2
  cat "$LOG4" >&2
  exit 1
}
BASE3="http://$ADDR3"
wait_ready "$BASE3" || { echo "smoke: bulk topod never became ready" >&2; exit 1; }
grep -q '^topod: bulk-loaded ' "$LOG4" \
  || { echo "smoke: -bulk did not report an STR bulk load" >&2; cat "$LOG4" >&2; exit 1; }

# Stream a batch through /v1/bulk: one rectangle per NDJSON line, all
# acknowledged by a single group-committed WAL append (fsync=always:
# durable before the 200).
BULK="$(mktemp)"
seq 1 300 | awk '{printf "{\"oid\":%d,\"rect\":[%d,%d,%d,%d]}\n", 700000+$1, 20000+$1, 20000+$1, 20001+$1, 20001+$1}' >"$BULK"
BRESP="$(curl -sf --data-binary @"$BULK" "$BASE3/v1/bulk?index=main")"
echo "$BRESP" | grep -q '"ok":true' \
  || { echo "smoke: bulk load failed: $BRESP" >&2; exit 1; }
echo "$BRESP" | grep -q '"inserted":300' \
  || { echo "smoke: bulk response did not count 300 inserts: $BRESP" >&2; exit 1; }

# A malformed line must reject the whole batch before any mutation.
BADRESP="$(curl -s -o /dev/null -w '%{http_code}' \
  --data-binary $'{"oid":900001,"rect":[1,1,2,2]}\n{"oid":900002,"rect":[5,5]}' \
  "$BASE3/v1/bulk?index=main")"
[ "$BADRESP" = "400" ] \
  || { echo "smoke: malformed bulk line answered $BADRESP, want 400" >&2; exit 1; }

QRESP="$(curl -sf -d '{"relations":["not_disjoint"],"ref":[20149,20149,20152,20152]}' "$BASE3/v1/query")"
echo "$QRESP" | grep -q '"oid":700150' \
  || { echo "smoke: bulk-loaded rectangle not found by query: $QRESP" >&2; exit 1; }

MET3="$(curl -sf "$BASE3/metrics")"
echo "$MET3" | grep -q '^topod_wal_group_commits_total' \
  || { echo "smoke: /metrics missing group-commit counters" >&2; exit 1; }

kill -9 "$PID3"
wait "$PID3" 2>/dev/null || true

LOG5="$(mktemp)"
"$TOPOD" -gen 1000 -bulk -tree rstar -data-dir "$DATADIR2" -fsync always \
  -addr 127.0.0.1:0 >"$LOG5" 2>&1 &
PID3=$!

ADDR3="$(wait_listen "$LOG5")" || {
  echo "smoke: restarted bulk topod never started listening" >&2
  cat "$LOG5" >&2
  exit 1
}
BASE3="http://$ADDR3"
wait_ready "$BASE3" || {
  echo "smoke: restarted bulk topod never became ready" >&2
  cat "$LOG5" >&2
  exit 1
}
grep -q '^topod: backend=recovered ' "$LOG5" \
  || { echo "smoke: bulk restart did not report recovery" >&2; cat "$LOG5" >&2; exit 1; }

QRESP2="$(curl -sf -d '{"relations":["not_disjoint"],"ref":[20149,20149,20152,20152]}' "$BASE3/v1/query")"
echo "$QRESP2" | grep -q '"oid":700150' \
  || { echo "smoke: bulk batch lost after crash recovery: $QRESP2" >&2; cat "$LOG5" >&2; exit 1; }

kill -TERM "$PID3"
if ! wait "$PID3"; then
  echo "smoke: bulk topod exited non-zero on SIGTERM" >&2
  cat "$LOG5" >&2
  exit 1
fi

echo "smoke OK: STR bulk load + /v1/bulk batch survived kill -9"

# ---- join leg: two indexes, /v1/join vs topoquery ground truth ----

LEFT="$(mktemp)" RIGHT="$(mktemp)"
"$DATAGEN" -n 4000 -queries 0 -qout '' -seed 71 -out "$LEFT" >/dev/null
"$DATAGEN" -n 4000 -queries 0 -qout '' -seed 72 -out "$RIGHT" >/dev/null

# Serial-engine ground truth for the same two files.
GT="$("$TOPOQUERY" -data "$LEFT" -join "$RIGHT" -rel meet,overlap -maxprint 0)"
TRUTH="$(echo "$GT" | sed -n 's/^join meet,overlap: \([0-9]*\) pairs.*/\1/p')"
if [ -z "$TRUTH" ] || [ "$TRUTH" -eq 0 ]; then
  echo "smoke: topoquery ground-truth join produced no pairs: $GT" >&2
  exit 1
fi

# -maxinflight 1 so a single stalled join saturates admission below.
LOG6="$(mktemp)"
"$TOPOD" -data "$LEFT" -data2 "$RIGHT" -bulk -tree rstar -maxinflight 1 \
  -addr 127.0.0.1:0 >"$LOG6" 2>&1 &
PID4=$!

ADDR4="$(wait_listen "$LOG6")" || {
  echo "smoke: join topod never started listening" >&2
  cat "$LOG6" >&2
  exit 1
}
BASE4="http://$ADDR4"
wait_ready "$BASE4" || { echo "smoke: join topod never became ready" >&2; exit 1; }

JRESP="$(curl -sf -d '{"left":"main","right":"second","relations":["meet","overlap"]}' \
  "$BASE4/v1/join")"
WIREPAIRS="$(echo "$JRESP" | grep -c '"left_oid"')" || true
[ "$WIREPAIRS" = "$TRUTH" ] \
  || { echo "smoke: /v1/join streamed $WIREPAIRS pairs, topoquery found $TRUTH" >&2; exit 1; }
echo "$JRESP" | tail -1 | grep -q "\"pairs\":$TRUTH" \
  || { echo "smoke: join stats line disagrees with ground truth ($TRUTH): $(echo "$JRESP" | tail -1)" >&2; exit 1; }

# The join keeps each node version's sweep order beside it once it has
# swept it: the first answer (orders computed) and the later ones (orders
# kept) must be the same lines. Workers interleave their pairs, so the
# bodies are compared sorted.
JQ='{"left":"main","right":"second","relations":["meet","overlap"]}'
JFIRST="$(mktemp)" JNEXT="$(mktemp)"
echo "$JRESP" | sort >"$JFIRST"
for i in $(seq 1 20); do
  curl -sf -d "$JQ" "$BASE4/v1/join" | sort >"$JNEXT"
  cmp -s "$JFIRST" "$JNEXT" \
    || { echo "smoke: /v1/join answer $i differs from the first" >&2; diff "$JFIRST" "$JNEXT" | head -5 >&2; exit 1; }
done

# An insert into the left index lands in a leaf those joins have swept.
# The next answer gains exactly the pairs topoquery's serial engine finds
# for the new object alone, and loses or changes no other line.
NEWOBJ="$(mktemp)"
echo "900001,500,500,530,530" >"$NEWOBJ"
PREDICTED="$("$TOPOQUERY" -data "$NEWOBJ" -join "$RIGHT" -rel meet,overlap -maxprint 100000 \
  | sed -n 's/^ *(\([0-9]*\), \([0-9]*\))$/\1 \2/p' | sort)"
[ -n "$PREDICTED" ] || { echo "smoke: topoquery predicts no pairs for the inserted object" >&2; exit 1; }
curl -sf -d '{"oid":900001,"rect":[500,500,530,530]}' "$BASE4/v1/insert" >/dev/null \
  || { echo "smoke: insert into the join's left index failed" >&2; exit 1; }
curl -sf -d "$JQ" "$BASE4/v1/join" | sort >"$JNEXT"
LOST="$(grep -v '"stats"' "$JFIRST" | comm -23 - <(grep -v '"stats"' "$JNEXT"))"
[ -z "$LOST" ] || { echo "smoke: the insert changed join lines it should not have: $(echo "$LOST" | head -3)" >&2; exit 1; }
GAINED="$(grep -v '"stats"' "$JFIRST" | comm -13 - <(grep -v '"stats"' "$JNEXT") \
  | sed -n 's/^{"left_oid":\([0-9]*\),"right_oid":\([0-9]*\),.*/\1 \2/p' | sort)"
[ "$GAINED" = "$PREDICTED" ] \
  || { echo "smoke: after the insert /v1/join gained [$GAINED], topoquery predicts [$PREDICTED]" >&2; exit 1; }
grep -q "\"pairs\":$((TRUTH + $(echo "$PREDICTED" | wc -l)))" "$JNEXT" \
  || { echo "smoke: join stats line after the insert: $(grep '"stats"' "$JNEXT")" >&2; exit 1; }

# Saturation: a throttled client holds the single admission slot open
# (the handler blocks writing the multi-MB not_disjoint stream), so
# the next join must be turned away with 429 + Retry-After.
curl -sN --limit-rate 1K -m 60 \
  -d '{"left":"main","right":"second","relations":["not_disjoint"]}' \
  "$BASE4/v1/join" >/dev/null 2>&1 &
CURLPID=$!

HDRS="$(mktemp)"
SATURATED=""
for _ in $(seq 1 50); do
  CODE="$(curl -s -D "$HDRS" -o /dev/null -w '%{http_code}' \
    -d '{"left":"main","right":"second","relations":["overlap"],"limit":1}' \
    "$BASE4/v1/join")"
  if [ "$CODE" = "429" ]; then SATURATED=yes; break; fi
  sleep 0.1
done
[ -n "$SATURATED" ] \
  || { echo "smoke: saturated /v1/join never answered 429" >&2; cat "$LOG6" >&2; exit 1; }
grep -qi '^Retry-After:' "$HDRS" \
  || { echo "smoke: 429 missing Retry-After header" >&2; cat "$HDRS" >&2; exit 1; }

kill -9 "$CURLPID" 2>/dev/null || true
wait "$CURLPID" 2>/dev/null || true

kill -TERM "$PID4"
if ! wait "$PID4"; then
  echo "smoke: join topod exited non-zero on SIGTERM" >&2
  cat "$LOG6" >&2
  exit 1
fi

echo "smoke OK: /v1/join matched topoquery ground truth, twenty repeats and an insert into a swept leaf + 429 under saturation"

# ---- flat-boot leg: checkpoint, kill -9, boot from the checkpoint
# image; then corrupt it and assert a 503 with the reason ----

# The first boot grows the R*-tree one insert at a time (no -bulk), so
# its shape — forced reinsertion and all — is one no bulk load of the
# same objects reproduces: the adoption check below can tell the
# checkpointed tree from a rebuild.
LOG7="$(mktemp)"
DATADIR3="$(mktemp -d)"
"$TOPOD" -gen 1500 -tree rstar -data-dir "$DATADIR3" -fsync always \
  -addr 127.0.0.1:0 >"$LOG7" 2>&1 &
PID5=$!

ADDR5="$(wait_listen "$LOG7")" || {
  echo "smoke: flat-leg topod never started listening" >&2
  cat "$LOG7" >&2
  exit 1
}
BASE5="http://$ADDR5"
wait_ready "$BASE5" || { echo "smoke: flat-leg topod never became ready" >&2; exit 1; }

# Baseline answer set, then a clean SIGTERM: the shutdown checkpoint
# publishes the image and leaves a quiet WAL of its generation.
FLATQ='{"relations":["not_disjoint"],"ref":[100,100,400,400]}'
flat_accesses() { curl -sf -d "$FLATQ" "$BASE5/v1/query" | grep -o '"node_accesses":[0-9]*' | tail -1; }
flat_height() { curl -sf "$BASE5/v1/indexes" | grep -o '"height":[0-9]*' | head -1; }
BASELINE="$(curl -sf -d "$FLATQ" "$BASE5/v1/query" | grep -c '"oid"')"
[ "$BASELINE" -gt 0 ] || { echo "smoke: flat-leg baseline query empty" >&2; exit 1; }
ACCESSES0="$(flat_accesses)"
HEIGHT0="$(flat_height)"
[ -n "$ACCESSES0" ] && [ -n "$HEIGHT0" ] \
  || { echo "smoke: flat-leg baseline has no node_accesses trailer or height" >&2; exit 1; }
kill -TERM "$PID5"
wait "$PID5" || { echo "smoke: flat-leg topod failed clean shutdown" >&2; cat "$LOG7" >&2; exit 1; }
[ -s "$DATADIR3/main.flat" ] \
  || { echo "smoke: checkpoint did not publish main.flat" >&2; exit 1; }
# The image and one log are the whole durable state: no .snap, .pages,
# .stats or .tmp beside them.
FILES="$(ls "$DATADIR3" | tr '\n' ' ')"
echo "$FILES" | grep -Eq '^main\.flat main\.wal\.[0-9]+ $' \
  || { echo "smoke: data dir holds [$FILES], want exactly main.flat + one main.wal.<gen>" >&2; exit 1; }

# Boot again from the directory alone (the quiet WAL makes it a flat
# boot): the image is adopted as the tree at boot, before any write.
flat_boot() {
  LOG8="$(mktemp)"
  "$TOPOD" -gen 1500 -bulk -tree rstar -data-dir "$DATADIR3" -fsync always \
    -addr 127.0.0.1:0 >"$LOG8" 2>&1 &
  PID5=$!
  ADDR5="$(wait_listen "$LOG8")" || {
    echo "smoke: flat-leg topod never restarted" >&2
    cat "$LOG8" >&2
    exit 1
  }
  BASE5="http://$ADDR5"
  wait_ready "$BASE5" || { echo "smoke: flat-boot topod never became ready" >&2; exit 1; }
  grep -q '^topod: backend=flat ' "$LOG8" \
    || { echo "smoke: restart did not boot from the checkpoint image" >&2; cat "$LOG8" >&2; exit 1; }
  grep -q 'adopted the checkpoint image' "$LOG8" \
    || { echo "smoke: topod did not log at boot that it adopted the image" >&2; cat "$LOG8" >&2; exit 1; }
}
flat_boot
FLATCOUNT="$(curl -sf -d "$FLATQ" "$BASE5/v1/query" | grep -c '"oid"')"
[ "$FLATCOUNT" = "$BASELINE" ] \
  || { echo "smoke: flat boot answered $FLATCOUNT matches, want $BASELINE" >&2; exit 1; }
MET5="$(curl -sf "$BASE5/metrics")"
echo "$MET5" | grep -q '^topod_index_backend{index="main",backend="flat"} 1' \
  || { echo "smoke: /metrics missing the flat backend gauge" >&2; exit 1; }
[ "$(flat_accesses)" = "$ACCESSES0" ] \
  || { echo "smoke: the adopted tree answers with $(flat_accesses), the tree the image was taken from with $ACCESSES0" >&2; exit 1; }
# Nothing was logged since the image on disk, so a clean shutdown has
# nothing to checkpoint: the image (its generation is in its header) and
# the one log beside it stay what they were.
FLATCOPY="$(mktemp)"
cp "$DATADIR3/main.flat" "$FLATCOPY"
kill -TERM "$PID5"
wait "$PID5" || { echo "smoke: unmutated flat-booted topod failed clean shutdown" >&2; cat "$LOG8" >&2; exit 1; }
cmp -s "$DATADIR3/main.flat" "$FLATCOPY" && [ "$(ls "$DATADIR3" | tr '\n' ' ')" = "$FILES" ] \
  || { echo "smoke: SIGTERM of an unmutated flat boot rewrote the checkpoint: [$(ls "$DATADIR3" | tr '\n' ' ')], was [$FILES]" >&2; exit 1; }
rm -f "$LOG8"

# An insert far from the query window must leave the tree what the first
# process checkpointed: same height, same node accesses for the same
# query. A tree rebuilt from the image's entries would be STR-packed and
# read a different number of nodes.
flat_boot
curl -sf -o /dev/null -d '{"oid":900001,"rect":[990,990,991,991]}' "$BASE5/v1/insert" \
  || { echo "smoke: insert after a flat boot failed" >&2; exit 1; }
[ "$(flat_accesses)" = "$ACCESSES0" ] && [ "$(flat_height)" = "$HEIGHT0" ] \
  || { echo "smoke: after the first insert on a flat boot: $(flat_accesses) $(flat_height), want $ACCESSES0 $HEIGHT0 (the adopted tree is not the checkpointed tree)" >&2; exit 1; }
kill -9 "$PID5"
wait "$PID5" 2>/dev/null || true

# Corrupt the image's node section: the next boot must detect the
# checksum failure, say so, and refuse the index's routes — the image
# is the only checkpoint, so there is nothing to fall back to and
# nothing may be guessed.
FLATSIZE="$(wc -c <"$DATADIR3/main.flat")"
printf '\xff\x01' | dd of="$DATADIR3/main.flat" bs=1 seek=$((FLATSIZE / 2)) conv=notrunc 2>/dev/null

LOG9="$(mktemp)"
"$TOPOD" -gen 1500 -bulk -tree rstar -data-dir "$DATADIR3" -fsync always \
  -addr 127.0.0.1:0 >"$LOG9" 2>&1 &
PID5=$!
ADDR5="$(wait_listen "$LOG9")" || {
  echo "smoke: corrupt-flat topod never started listening" >&2
  cat "$LOG9" >&2
  exit 1
}
BASE5="http://$ADDR5"
grep -q '^topod: index "main" UNHEALTHY .*checksum mismatch' "$LOG9" \
  || { echo "smoke: boot line does not report the corrupt image" >&2; cat "$LOG9" >&2; exit 1; }
CCODE="$(curl -s -o /dev/null -w '%{http_code}' -d "$FLATQ" "$BASE5/v1/query")"
[ "$CCODE" = "503" ] \
  || { echo "smoke: query on a corrupt image answered $CCODE, want 503" >&2; exit 1; }
# /healthz is liveness only (the process is up); the reason is on /readyz.
HCODE="$(curl -s -o /dev/null -w '%{http_code}' "$BASE5/healthz")"
[ "$HCODE" = "200" ] \
  || { echo "smoke: /healthz answered $HCODE on a degraded index, want 200" >&2; exit 1; }
READY="$(curl -s "$BASE5/readyz")"
echo "$READY" | grep -q 'checksum mismatch' \
  || { echo "smoke: /readyz does not give the reason: $READY" >&2; exit 1; }
MET5="$(curl -sf "$BASE5/metrics")"
echo "$MET5" | grep -q '^topod_checksum_failures_total [1-9]' \
  || { echo "smoke: corrupt image not counted in topod_checksum_failures_total" >&2; exit 1; }
# Nothing was rebuilt over the image that could not be read.
[ "$(wc -c <"$DATADIR3/main.flat")" = "$FLATSIZE" ] \
  || { echo "smoke: the corrupt image was overwritten" >&2; exit 1; }

kill -TERM "$PID5"
if ! wait "$PID5"; then
  echo "smoke: flat-leg topod exited non-zero on SIGTERM" >&2
  cat "$LOG9" >&2
  exit 1
fi

echo "smoke OK: two-file data dir, flat boot adopts the checkpointed tree, clean shutdown of it writes nothing, 503 with the reason on corruption"

# ---- watch leg: topoquery -watch streams live events from a durable
# topod; single inserts, a bulk batch, and a delete must each arrive,
# and SIGTERM must end the stream with a terminal drain line ----

LOG10="$(mktemp)"
WLOG="$(mktemp)"
DATADIR4="$(mktemp -d)"
"$TOPOD" -gen 200 -tree rtree -data-dir "$DATADIR4" -fsync always \
  -addr 127.0.0.1:0 >"$LOG10" 2>&1 &
PID6=$!

ADDR6="$(wait_listen "$LOG10")" || {
  echo "smoke: watch-leg topod never started listening" >&2
  cat "$LOG10" >&2
  exit 1
}
BASE6="http://$ADDR6"
wait_ready "$BASE6" || { echo "smoke: watch-leg topod never became ready" >&2; exit 1; }

# Subscribe far away from the generated data so the leg's events are
# exactly the mutations below.
"$TOPOQUERY" -watch "$BASE6" -rel not_disjoint -ref 30000,30000,30100,30100 \
  >"$WLOG" 2>&1 &
WATCHPID=$!
wait_line "$WLOG" 'watching index' || {
  echo "smoke: topoquery -watch never confirmed the subscription" >&2
  cat "$WLOG" >&2
  exit 1
}

# Single insert inside the watched region → enter event.
ACK6="$(curl -sf -d '{"oid":910001,"rect":[30010,30010,30020,30020]}' "$BASE6/v1/insert")"
echo "$ACK6" | grep -q '"ok":true' \
  || { echo "smoke: watch-leg insert failed: $ACK6" >&2; exit 1; }
wait_line "$WLOG" 'enter .*oid 910001 ' || {
  echo "smoke: enter event for single insert never arrived" >&2
  cat "$WLOG" >&2
  exit 1
}

# Bulk batch (one group-committed WAL append) → one enter per line.
WBULK="$(mktemp)"
printf '%s\n' \
  '{"oid":910002,"rect":[30030,30030,30040,30040]}' \
  '{"oid":910003,"rect":[30050,30050,30060,30060]}' >"$WBULK"
BACK6="$(curl -sf --data-binary @"$WBULK" "$BASE6/v1/bulk?index=main")"
echo "$BACK6" | grep -q '"inserted":2' \
  || { echo "smoke: watch-leg bulk failed: $BACK6" >&2; exit 1; }
wait_line "$WLOG" 'enter .*oid 910002 ' && wait_line "$WLOG" 'enter .*oid 910003 ' || {
  echo "smoke: enter events for the bulk batch never arrived" >&2
  cat "$WLOG" >&2
  exit 1
}

# Delete → exit event.
DACK6="$(curl -sf -d '{"oid":910001,"rect":[30010,30010,30020,30020]}' "$BASE6/v1/delete")"
echo "$DACK6" | grep -q '"ok":true' \
  || { echo "smoke: watch-leg delete failed: $DACK6" >&2; exit 1; }
wait_line "$WLOG" 'exit .*oid 910001 ' || {
  echo "smoke: exit event for the delete never arrived" >&2
  cat "$WLOG" >&2
  exit 1
}

MET6="$(curl -sf "$BASE6/metrics")"
echo "$MET6" | grep -q '^topod_watch_streams 1' \
  || { echo "smoke: /metrics missing the live watch-stream gauge" >&2; exit 1; }

# SIGTERM: the drain must end the stream with a terminal line and let
# topoquery exit 0 — not leave it hanging on a dead socket.
kill -TERM "$PID6"
if ! wait "$PID6"; then
  echo "smoke: watch-leg topod exited non-zero on SIGTERM" >&2
  cat "$LOG10" >&2
  exit 1
fi
if ! wait "$WATCHPID"; then
  echo "smoke: topoquery -watch exited non-zero after server drain" >&2
  cat "$WLOG" >&2
  exit 1
fi
grep -q '^watch ended by server: drain$' "$WLOG" \
  || { echo "smoke: terminal drain line missing from watch output" >&2; cat "$WLOG" >&2; exit 1; }

echo "smoke OK: /v1/watch streamed insert/bulk/delete events + terminal drain line"

# ---- replication leg: primary + -follow replica, hot failover ----

LOG11="$(mktemp)"
LOG12="$(mktemp)"
DATADIR5="$(mktemp -d)"
DATADIR6="$(mktemp -d)"
"$TOPOD" -gen 400 -tree rtree -data-dir "$DATADIR5" -fsync always \
  -addr 127.0.0.1:0 >"$LOG11" 2>&1 &
PID7=$!

ADDR7="$(wait_listen "$LOG11")" || {
  echo "smoke: repl-leg primary never started listening" >&2
  cat "$LOG11" >&2
  exit 1
}
PRI="http://$ADDR7"
wait_ready "$PRI" || { echo "smoke: repl-leg primary never became ready" >&2; exit 1; }

"$TOPOD" -addr 127.0.0.1:0 -follow "$PRI" -data-dir "$DATADIR6" -max-lag 5s -drain 5s \
  >"$LOG12" 2>&1 &
PID8=$!

ADDR8="$(wait_listen "$LOG12")" || {
  echo "smoke: replica never started listening" >&2
  cat "$LOG12" >&2
  exit 1
}
REP="http://$ADDR8"
grep -q '^topod: backend=follower ' "$LOG12" \
  || { echo "smoke: replica did not report follower mode" >&2; cat "$LOG12" >&2; exit 1; }
# /readyz gates on bootstrap + lag: once it answers 200 the replica
# holds the primary's dataset.
wait_ready "$REP" || { echo "smoke: replica never became ready" >&2; cat "$LOG12" >&2; exit 1; }

RIDX="$(curl -sf "$REP/v1/indexes")"
echo "$RIDX" | grep -q '"objects":400' \
  || { echo "smoke: replica does not serve the primary's 400 objects: $RIDX" >&2; exit 1; }

# A write on the primary must become visible on the replica.
RACK="$(curl -sf -d '{"oid":555001,"rect":[40010,40010,40020,40020]}' "$PRI/v1/insert")"
echo "$RACK" | grep -q '"ok":true' \
  || { echo "smoke: repl-leg primary insert failed: $RACK" >&2; exit 1; }
REPLICATED=""
for _ in $(seq 1 100); do
  RQ="$(curl -sf -d '{"relations":["not_disjoint"],"ref":[40000,40000,40030,40030]}' "$REP/v1/query" || true)"
  if echo "$RQ" | grep -q '"oid":555001'; then REPLICATED=yes; break; fi
  sleep 0.1
done
[ -n "$REPLICATED" ] \
  || { echo "smoke: primary insert never appeared on the replica" >&2; cat "$LOG12" >&2; exit 1; }

# The replica refuses writes, naming the primary.
WCODE="$(curl -s -o "$HDRS" -w '%{http_code}' \
  -d '{"oid":555002,"rect":[1,1,2,2]}' "$REP/v1/insert")"
[ "$WCODE" = "403" ] \
  || { echo "smoke: replica answered $WCODE to a write, want 403" >&2; exit 1; }
grep -q '"primary"' "$HDRS" \
  || { echo "smoke: replica 403 does not name the primary: $(cat "$HDRS")" >&2; exit 1; }

# A replica that is still following shuts down like any other topod:
# SIGTERM it while the primary takes a write. Close stops the follower
# loops before it closes the indexes, so the process exits 0 with its
# bye inside the drain budget and leaves no half-written image behind —
# a loop left streaming would re-bootstrap into the closed directory.
curl -sf -d '{"oid":555004,"rect":[40060,40060,40070,40070]}' "$PRI/v1/insert" >/dev/null &
WPID=$!
SECONDS=0
kill -TERM "$PID8"
if ! wait "$PID8"; then
  echo "smoke: following replica exited non-zero on SIGTERM" >&2
  cat "$LOG12" >&2
  exit 1
fi
wait "$WPID" || { echo "smoke: primary write beside the replica's shutdown failed" >&2; exit 1; }
[ "$SECONDS" -lt 5 ] \
  || { echo "smoke: following replica took ${SECONDS}s to drain (-drain 5s)" >&2; cat "$LOG12" >&2; exit 1; }
grep -q '^topod: bye$' "$LOG12" \
  || { echo "smoke: following replica logged no bye" >&2; cat "$LOG12" >&2; exit 1; }
TMPS="$(find "$DATADIR6" -name '*.tmp')"
[ -z "$TMPS" ] \
  || { echo "smoke: replica shutdown left temporary files: $TMPS" >&2; exit 1; }

# The same directory boots again and catches up, the write it missed
# included. Its log starts over, so the address scrape is unambiguous.
: >"$LOG12"
"$TOPOD" -addr 127.0.0.1:0 -follow "$PRI" -data-dir "$DATADIR6" -max-lag 5s -drain 5s \
  >"$LOG12" 2>&1 &
PID8=$!
ADDR8="$(wait_listen "$LOG12")" || {
  echo "smoke: restarted replica never started listening" >&2
  cat "$LOG12" >&2
  exit 1
}
REP="http://$ADDR8"
wait_ready "$REP" || { echo "smoke: restarted replica never became ready" >&2; cat "$LOG12" >&2; exit 1; }
REPLICATED=""
for _ in $(seq 1 100); do
  RQ="$(curl -sf -d '{"relations":["not_disjoint"],"ref":[40055,40055,40075,40075]}' "$REP/v1/query" || true)"
  if echo "$RQ" | grep -q '"oid":555004'; then REPLICATED=yes; break; fi
  sleep 0.1
done
[ -n "$REPLICATED" ] \
  || { echo "smoke: restarted replica never served the write it missed" >&2; cat "$LOG12" >&2; exit 1; }

# Hot failover: hard-kill the primary, promote the replica, and write.
kill -9 "$PID7"
wait "$PID7" 2>/dev/null || true
PROM="$(curl -sf -X POST "$REP/v1/promote")"
echo "$PROM" | grep -q '"promoted":true' \
  || { echo "smoke: promote failed: $PROM" >&2; cat "$LOG12" >&2; exit 1; }
# SIGUSR1 is the other promotion path; promotion is idempotent, so this
# exercises the signal handler and must log the notice.
kill -USR1 "$PID8"
wait_line "$LOG12" 'promoted to primary' || {
  echo "smoke: replica log missing promotion notice after SIGUSR1" >&2
  cat "$LOG12" >&2
  exit 1
}
PACK="$(curl -sf -d '{"oid":555003,"rect":[40040,40040,40050,40050]}' "$REP/v1/insert")"
echo "$PACK" | grep -q '"ok":true' \
  || { echo "smoke: write after promotion failed: $PACK" >&2; cat "$LOG12" >&2; exit 1; }
PQ="$(curl -sf -d '{"relations":["not_disjoint"],"ref":[40035,40035,40055,40055]}' "$REP/v1/query")"
echo "$PQ" | grep -q '"oid":555003' \
  || { echo "smoke: post-promotion write not served: $PQ" >&2; exit 1; }
wait_ready "$REP" || { echo "smoke: promoted replica not ready" >&2; exit 1; }

kill -TERM "$PID8"
if ! wait "$PID8"; then
  echo "smoke: promoted replica exited non-zero on SIGTERM" >&2
  cat "$LOG12" >&2
  exit 1
fi

echo "smoke OK: replica followed, drained on SIGTERM while following and caught up after a restart, failed over on kill -9, and accepted writes"

# ---- shard leg: -shards 4 vs -shards 1, scatter-gather answer
# parity, then kill -9 + reboot recovering every tile ----

LOG13="$(mktemp)"
LOG14="$(mktemp)"
DATADIR7="$(mktemp -d)"

# The single-index twin over the same generated dataset (same -gen,
# -seed, -tree ⇒ identical rectangles).
"$TOPOD" -gen 3000 -bulk -tree rstar -shards 1 -addr 127.0.0.1:0 >"$LOG13" 2>&1 &
PID9=$!
ADDR9="$(wait_listen "$LOG13")" || {
  echo "smoke: shard-leg single topod never started listening" >&2
  cat "$LOG13" >&2
  exit 1
}
ONE="http://$ADDR9"
wait_ready "$ONE" || { echo "smoke: shard-leg single topod never became ready" >&2; exit 1; }

"$TOPOD" -gen 3000 -bulk -tree rstar -shards 4 -data-dir "$DATADIR7" -fsync always \
  -addr 127.0.0.1:0 >"$LOG14" 2>&1 &
PID10=$!
ADDR10="$(wait_listen "$LOG14")" || {
  echo "smoke: sharded topod never started listening" >&2
  cat "$LOG14" >&2
  exit 1
}
FOUR="http://$ADDR10"
wait_ready "$FOUR" || { echo "smoke: sharded topod never became ready" >&2; cat "$LOG14" >&2; exit 1; }
grep -q '^topod: backend=sharded ' "$LOG14" \
  || { echo "smoke: -shards 4 did not report a sharded boot" >&2; cat "$LOG14" >&2; exit 1; }

SIDX="$(curl -sf "$FOUR/v1/indexes")"
echo "$SIDX" | grep -q '"shards":4' \
  || { echo "smoke: /v1/indexes missing the tile count: $SIDX" >&2; exit 1; }

# Query, kNN, and self-join answers must match the single-index twin.
SHQ='{"relations":["not_disjoint"],"ref":[100,100,400,400]}'
ONECOUNT="$(curl -sf -d "$SHQ" "$ONE/v1/query" | grep -c '"oid"')"
FOURCOUNT="$(curl -sf -d "$SHQ" "$FOUR/v1/query" | grep -c '"oid"')"
[ "$ONECOUNT" -gt 0 ] || { echo "smoke: shard-leg query found nothing" >&2; exit 1; }
[ "$ONECOUNT" = "$FOURCOUNT" ] \
  || { echo "smoke: sharded query streamed $FOURCOUNT matches, single $ONECOUNT" >&2; exit 1; }

ONEKNN="$(curl -sf "$ONE/v1/knn?k=7&x=500&y=500")"
FOURKNN="$(curl -sf "$FOUR/v1/knn?k=7&x=500&y=500")"
ONEIDS="$(echo "$ONEKNN" | tr ',' '\n' | sed -n 's/.*"oid":\([0-9]*\).*/\1/p' | sort -n)"
FOURIDS="$(echo "$FOURKNN" | tr ',' '\n' | sed -n 's/.*"oid":\([0-9]*\).*/\1/p' | sort -n)"
[ -n "$ONEIDS" ] && [ "$ONEIDS" = "$FOURIDS" ] \
  || { echo "smoke: sharded kNN disagreed with single-index kNN" >&2; echo "$ONEKNN"; echo "$FOURKNN"; exit 1; }

SHJ='{"relations":["meet","overlap"]}'
ONEPAIRS="$(curl -sf -d "$SHJ" "$ONE/v1/join" | grep -c '"left_oid"')" || true
FOURPAIRS="$(curl -sf -d "$SHJ" "$FOUR/v1/join" | grep -c '"left_oid"')" || true
[ "$ONEPAIRS" -gt 0 ] || { echo "smoke: shard-leg self-join found no pairs" >&2; exit 1; }
[ "$ONEPAIRS" = "$FOURPAIRS" ] \
  || { echo "smoke: sharded self-join streamed $FOURPAIRS pairs, single $ONEPAIRS" >&2; exit 1; }

MET10="$(curl -sf "$FOUR/metrics")"
echo "$MET10" | grep -q '^topod_shard_tiles{index="main"} 4' \
  || { echo "smoke: /metrics missing the shard tile gauge" >&2; exit 1; }

# A durable marker, then kill -9: the reboot (no -shards flag — the
# on-disk tile layout must win) has to recover all four tiles and the
# marker.
SACK="$(curl -sf -d '{"oid":777001,"rect":[50000,50000,50010,50010]}' "$FOUR/v1/insert")"
echo "$SACK" | grep -q '"ok":true' \
  || { echo "smoke: shard-leg marker insert failed: $SACK" >&2; exit 1; }
kill -9 "$PID10"
wait "$PID10" 2>/dev/null || true
for t in 0 1 2 3; do
  [ -s "$DATADIR7/main.t$t.flat" ] \
    || { echo "smoke: tile $t left no checkpoint image in $DATADIR7" >&2; ls -l "$DATADIR7" >&2; exit 1; }
done

LOG15="$(mktemp)"
"$TOPOD" -gen 3000 -bulk -tree rstar -data-dir "$DATADIR7" -fsync always \
  -addr 127.0.0.1:0 >"$LOG15" 2>&1 &
PID10=$!
ADDR10="$(wait_listen "$LOG15")" || {
  echo "smoke: rebooted sharded topod never started listening" >&2
  cat "$LOG15" >&2
  exit 1
}
FOUR="http://$ADDR10"
wait_ready "$FOUR" || { echo "smoke: rebooted sharded topod never became ready" >&2; cat "$LOG15" >&2; exit 1; }
grep -q '^topod: backend=sharded recovered .* across 4 STR tiles' "$LOG15" \
  || { echo "smoke: reboot did not recover the 4-tile layout" >&2; cat "$LOG15" >&2; exit 1; }
REBOOTCOUNT="$(curl -sf -d "$SHQ" "$FOUR/v1/query" | grep -c '"oid"')"
[ "$REBOOTCOUNT" = "$ONECOUNT" ] \
  || { echo "smoke: rebooted sharded query streamed $REBOOTCOUNT matches, want $ONECOUNT" >&2; exit 1; }
SMARK="$(curl -sf -d '{"relations":["not_disjoint"],"ref":[49999,49999,50011,50011]}' "$FOUR/v1/query")"
echo "$SMARK" | grep -q '"oid":777001' \
  || { echo "smoke: sharded marker lost after kill -9 reboot: $SMARK" >&2; exit 1; }

kill -TERM "$PID9"
wait "$PID9" || { echo "smoke: shard-leg single topod failed clean shutdown" >&2; cat "$LOG13" >&2; exit 1; }
kill -TERM "$PID10"
if ! wait "$PID10"; then
  echo "smoke: rebooted sharded topod exited non-zero on SIGTERM" >&2
  cat "$LOG15" >&2
  exit 1
fi

echo "smoke OK: -shards 4 matched -shards 1 answers + kill -9 recovered every tile"

# ---- cache leg: a repeat query must hit the generation-keyed result
# cache byte for byte; a mutation bumps the generation, so the same
# query must miss and see the new rectangle ----

LOG16="$(mktemp)"
"$TOPOD" -gen 1000 -bulk -tree rstar -cache-size 64 -addr 127.0.0.1:0 >"$LOG16" 2>&1 &
PID11=$!
ADDR11="$(wait_listen "$LOG16")" || {
  echo "smoke: cache-leg topod never started listening" >&2
  cat "$LOG16" >&2
  exit 1
}
CBASE="http://$ADDR11"
wait_ready "$CBASE" || { echo "smoke: cache-leg topod never became ready" >&2; exit 1; }

CQ='{"relations":["not_disjoint"],"ref":[200,200,500,500]}'
COLD="$(curl -sf -d "$CQ" "$CBASE/v1/query")"
# The lines of one answer are batched, not flushed one by one: a
# window answer of over 100 lines costs a handful of writes at most.
CLINES="$(echo "$COLD" | wc -l)"
[ "$CLINES" -gt 100 ] \
  || { echo "smoke: cache-leg window answer has $CLINES lines, need more than 100 to check batching" >&2; exit 1; }
CFLUSH="$(curl -sf "$CBASE/metrics" | awk '/^topod_stream_flushes_total /{print $2}')"
[ -n "$CFLUSH" ] && [ "$CFLUSH" -le 3 ] \
  || { echo "smoke: a $CLINES-line answer cost '$CFLUSH' stream flushes, want at most 3" >&2; exit 1; }
WARM="$(curl -sf -d "$CQ" "$CBASE/v1/query")"
[ "$COLD" = "$WARM" ] \
  || { echo "smoke: cache hit response differs from the cold miss" >&2; exit 1; }

CMET="$(curl -sf "$CBASE/metrics")"
echo "$CMET" | grep -q '^topod_cache_hits_total 1$' \
  || { echo "smoke: repeat query did not increment topod_cache_hits_total" >&2; echo "$CMET" | grep '^topod_cache' >&2; exit 1; }
echo "$CMET" | grep -q '^topod_cache_misses_total 1$' \
  || { echo "smoke: cold query did not count one cache miss" >&2; echo "$CMET" | grep '^topod_cache' >&2; exit 1; }

# A mutation bumps the generation: the same query is a miss again and
# must include the freshly inserted rectangle, never the stale answer.
CACK="$(curl -sf -d '{"oid":880001,"rect":[210,210,220,220]}' "$CBASE/v1/insert")"
echo "$CACK" | grep -q '"ok":true' \
  || { echo "smoke: cache-leg insert failed: $CACK" >&2; exit 1; }
AFTER="$(curl -sf -d "$CQ" "$CBASE/v1/query")"
echo "$AFTER" | grep -q '"oid":880001' \
  || { echo "smoke: post-mutation query served a stale cached answer" >&2; exit 1; }
CMET2="$(curl -sf "$CBASE/metrics")"
echo "$CMET2" | grep -q '^topod_cache_misses_total 2$' \
  || { echo "smoke: post-mutation query did not miss the cache" >&2; echo "$CMET2" | grep '^topod_cache' >&2; exit 1; }
echo "$CMET2" | grep -q '^topod_cache_hits_total 1$' \
  || { echo "smoke: post-mutation query wrongly hit the cache" >&2; echo "$CMET2" | grep '^topod_cache' >&2; exit 1; }

kill -TERM "$PID11"
if ! wait "$PID11"; then
  echo "smoke: cache-leg topod exited non-zero on SIGTERM" >&2
  cat "$LOG16" >&2
  exit 1
fi

echo "smoke OK: $CLINES-line answer in $CFLUSH flushes + cache hit on repeat query + generation-keyed miss after mutation"

# ---- kept-text leg: with the cache off every answer comes from the
# tree, the first ones rendered rectangle by rectangle, later ones
# copied from the text each leaf keeps once it has earned it; no byte
# may differ, and a write must never be answered from the old text ----

LOG17="$(mktemp)"
TEXTDIR="$(mktemp -d)"
"$TOPOD" -gen 2000 -bulk -tree rstar -cache-size 0 -addr 127.0.0.1:0 >"$LOG17" 2>&1 &
PID12=$!
ADDR12="$(wait_listen "$LOG17")" || {
  echo "smoke: kept-text topod never started listening" >&2
  cat "$LOG17" >&2
  exit 1
}
TBASE="http://$ADDR12"
wait_ready "$TBASE" || { echo "smoke: kept-text topod never became ready" >&2; exit 1; }

TQ='{"relations":["not_disjoint"],"ref":[200,200,500,500]}'
# same_forty NAME: forty answers to TQ, each byte-equal to the first.
same_forty() {
  for i in $(seq 1 40); do
    curl -sf -d "$TQ" "$TBASE/v1/query" >"$TEXTDIR/$1.$i"
    cmp -s "$TEXTDIR/$1.1" "$TEXTDIR/$1.$i" \
      || { echo "smoke: answer $i of forty differs from the first ($1)" >&2; diff "$TEXTDIR/$1.1" "$TEXTDIR/$1.$i" | head -5 >&2; exit 1; }
  done
}
same_forty before
TLINES="$(wc -l <"$TEXTDIR/before.1")"
[ "$TLINES" -gt 100 ] && tail -1 "$TEXTDIR/before.1" | grep -q '"stats"' \
  || { echo "smoke: kept-text answer has $TLINES lines or no stats trailer" >&2; exit 1; }

TACK="$(curl -sf -d '{"oid":880002,"rect":[210.5,210.25,220.125,220.75]}' "$TBASE/v1/insert")"
echo "$TACK" | grep -q '"ok":true' \
  || { echo "smoke: kept-text insert failed: $TACK" >&2; exit 1; }
same_forty after
grep -qxF '{"oid":880002,"rect":[210.5,210.25,220.125,220.75]}' "$TEXTDIR/after.1" \
  || { echo "smoke: the inserted object's line is missing or carries other coordinates" >&2; grep '"oid":880002' "$TEXTDIR/after.1" >&2; exit 1; }
[ "$(grep -c '"oid"' "$TEXTDIR/after.1")" -eq "$(( $(grep -c '"oid"' "$TEXTDIR/before.1") + 1 ))" ] \
  || { echo "smoke: the insert changed the answer by more than its own line" >&2; exit 1; }
# Every other line is the one the answers before the insert carried.
grep '"oid"' "$TEXTDIR/before.1" | sort >"$TEXTDIR/before.sorted"
grep '"oid"' "$TEXTDIR/after.1" | grep -v '"oid":880002,' | sort >"$TEXTDIR/after.sorted"
cmp -s "$TEXTDIR/before.sorted" "$TEXTDIR/after.sorted" \
  || { echo "smoke: a stored object's line changed across the insert" >&2; exit 1; }

kill -TERM "$PID12"
if ! wait "$PID12"; then
  echo "smoke: kept-text topod exited non-zero on SIGTERM" >&2
  cat "$LOG17" >&2
  exit 1
fi

echo "smoke OK: forty $TLINES-line answers byte-equal before and after an insert into their leaves"
