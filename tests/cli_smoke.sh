#!/bin/sh
# End-to-end smoke test of the tcomp CLI: generate → discover (with
# checkpoint round trip) → verify effectiveness output.
set -e
CLI="$1"
DIR="$2"
cd "$DIR" || exit 1

# On any failure, dump the CLI logs to stderr so the CTest log alone is
# enough to diagnose what broke. Any background serve process is killed
# so a failed run cannot leave an orphan listener behind.
dump_logs_on_failure() {
    status=$?
    if [ -n "$SERVE_PID" ] && kill -0 "$SERVE_PID" 2>/dev/null; then
        kill -TERM "$SERVE_PID" 2>/dev/null || true
        wait "$SERVE_PID" 2>/dev/null || true
    fi
    if [ "$status" -ne 0 ]; then
        echo "cli_smoke: FAILED (exit $status); CLI logs follow" >&2
        for f in gen.log run1.log run2.log run3.log suggest.log \
                 serve1.log serve2.log serve3.log serve4.log \
                 serve5.log serve6.log serve7.log blast.log \
                 feed1.log feed2.log feed3.log feed4.log \
                 feed5.log feed6.log feed7.log; do
            if [ -f "$f" ]; then
                echo "--- $f ---" >&2
                cat "$f" >&2
            else
                echo "--- $f (not written) ---" >&2
            fi
        done
    fi
}
trap dump_logs_on_failure EXIT

# Fails unless file $1 has SHA-256 digest $2; $3 says what a mismatch
# means.
expect_digest() {
    actual=$(sha256sum "$1" | cut -d ' ' -f 1)
    if [ "$actual" != "$2" ]; then
        echo "cli_smoke: $1 has sha256 $actual, expected $2: $3" >&2
        exit 1
    fi
}

# Waits (up to ~10s) for a serve process to write its bound port.
wait_for_port_file() {
    i=0
    while [ ! -s "$1" ] && [ "$i" -lt 100 ]; do
        sleep 0.1
        i=$((i+1))
    done
    test -s "$1"
}

"$CLI" generate --dataset d2 --snapshots 40 --out d2.csv --truth d2.truth \
    --seed 7 > gen.log
grep -q "wrote" gen.log
# The input every product below is computed from is pinned on its own,
# so that a change in the generator or in libm is told apart from a
# change in an algorithm's products.
expect_digest d2.csv \
    7cb2e1ecf92126031060a97d7598fee895cb2b07f4dcd03efea18c7a31badade \
    "the d2 generator (or the libm under it) writes a different stream"

"$CLI" discover --csv d2.csv --algo bu --epsilon 24 --mu 5 \
    --min-size 10 --min-duration 10 --window-seconds 60 --shards 2 \
    --truth d2.truth --timeline --quiet --save-state d2.ckpt \
    --out-json d2.json --out-csv d2_out.csv \
    --stats-json d2_stats.json > run1.log
grep -q "distinct companions" run1.log
grep -q "recall" run1.log
grep -q "companion timeline" run1.log
test -f d2.ckpt
grep -q '"companions"' d2.json
head -1 d2_out.csv | grep -q "duration,snapshot_index,size,objects"
# The stage-metrics dump holds all three sections and a populated
# snapshot_close histogram (one sample per processed snapshot).
grep -q '"histograms"' d2_stats.json
grep -q '"counters"' d2_stats.json
grep -q 'stage=\\"snapshot_close\\"' d2_stats.json

# Parameter suggestion lands near the generator's scale.
"$CLI" suggest --csv d2.csv --window-seconds 60 > suggest.log
grep -q "suggested thresholds" suggest.log

# Resume from the checkpoint (no further input — state must load).
"$CLI" discover --csv d2.csv --algo bu --epsilon 24 --mu 5 \
    --min-size 10 --min-duration 10 --window-seconds 60 \
    --load-state d2.ckpt --quiet > run2.log
grep -q "resumed from" run2.log

# Unknown flags/commands fail loudly — by name, in every subcommand.
if "$CLI" frobnicate > /dev/null 2>&1; then exit 1; fi
for cmd in "generate --dataset d2 --out x.csv" \
           "discover --csv d2.csv" \
           "suggest --csv d2.csv" \
           "serve" \
           "feed --csv d2.csv --port 1" \
           "blast"; do
    # shellcheck disable=SC2086  # $cmd is a command line, split on purpose
    if "$CLI" $cmd --no-such-flag > /dev/null 2> flag.err; then exit 1; fi
    grep -q -- "unknown flag --no-such-flag" flag.err
done

# Runs a command that must exit with the given code; its stderr is left
# in expect.err for the caller to check.
expect_exit() {
    want=$1
    shift
    rc=0
    "$@" > /dev/null 2> expect.err || rc=$?
    if [ "$rc" -ne "$want" ]; then
        echo "expected exit $want, got $rc: $*" >&2
        cat expect.err >&2
        exit 1
    fi
}

# A record id outside the uint32 grammar is refused with its line, by
# every reader of a record CSV (it used to load as 4294967295).
printf 'object_id,timestamp,x,y\n1,0,1,2\n-1,0,3,4\n' > bad_id.csv
expect_exit 1 "$CLI" discover --csv bad_id.csv --quiet
grep -q "bad_id.csv:3:" expect.err
expect_exit 1 "$CLI" feed --csv bad_id.csv --port 1
grep -q "bad_id.csv:3:" expect.err
# So is one in a truth file.
printf '1 2 3\n-1 4\n' > bad.truth
expect_exit 1 "$CLI" discover --csv d2.csv --quiet --truth bad.truth
grep -q "bad.truth:2:" expect.err

# Thresholds the discoverer cannot run with are usage errors naming the
# flag, never an abort.
for flag in "--epsilon 0" "--epsilon -1" "--epsilon nan" "--epsilon inf" \
            "--mu 0" "--min-size 0" "--min-duration nan" \
            "--window-seconds 0" "--window-objects 0" "--inactive -1"; do
    # shellcheck disable=SC2086  # $flag is a flag and its value
    expect_exit 2 "$CLI" discover --csv d2.csv --quiet $flag
    grep -q -- "${flag%% *}" expect.err
done
expect_exit 2 "$CLI" serve --epsilon 0
grep -q -- "--epsilon" expect.err
expect_exit 2 "$CLI" blast --mu 0
grep -q -- "--mu" expect.err
expect_exit 2 "$CLI" serve --inactive -1
grep -q -- "--inactive" expect.err

# --shards sizes the thread pool: every subcommand bounds it to [1, 64],
# and the retired --threads is an unknown flag. None of these starts a
# thread.
for cmd in "discover --csv d2.csv --quiet" "serve" "blast"; do
    for flag in "--shards 0" "--shards 65" "--threads 2"; do
        # shellcheck disable=SC2086  # command line and flag, split on purpose
        expect_exit 2 "$CLI" $cmd $flag
        grep -q -- "${flag%% *}" expect.err
    done
done

# The stripe count changes no product: discover at --shards 3 is
# byte-identical to --shards 1 for every algorithm.
for algo in ci sc bu; do
    for shards in 1 3; do
        "$CLI" discover --csv d2.csv --algo "$algo" --epsilon 24 --mu 5 \
            --min-size 10 --min-duration 10 --window-seconds 60 \
            --shards "$shards" --out-csv "stripes_${algo}_${shards}.csv" \
            --quiet > /dev/null
    done
    cmp "stripes_${algo}_1.csv" "stripes_${algo}_3.csv"
done
# The products themselves are pinned: every other product check here
# compares two runs of the same build, which agree with each other even
# when both are wrong. SC and BU report the same companions.
expect_digest stripes_ci_1.csv \
    c1a30d509a2b015d7edb35462a2334dd44e66b57a476e34e6a0e016bc6efad14 \
    "CI's companions on the pinned d2 stream changed"
expect_digest stripes_sc_1.csv \
    a0fe77bd1f2c3ed435d4457f747d0a745f08aff62920e3f341d03a27c667975c \
    "SC's companions on the pinned d2 stream changed"
expect_digest stripes_bu_1.csv \
    a0fe77bd1f2c3ed435d4457f747d0a745f08aff62920e3f341d03a27c667975c \
    "BU's companions on the pinned d2 stream changed"
expect_exit 2 "$CLI" suggest --csv d2.csv --window-seconds 0
grep -q -- "--window-seconds" expect.err
expect_exit 2 "$CLI" suggest --csv d2.csv --k 0
grep -q -- "--k" expect.err
expect_exit 1 "$CLI" blast --objects 0
grep -q -- "--objects" expect.err

# A pipe loads in one pass, to the same products as the file.
cat d2.csv | "$CLI" discover --csv /dev/stdin --algo bu --epsilon 24 \
    --mu 5 --min-size 10 --min-duration 10 --window-seconds 60 --quiet \
    --out-csv pipe_out.csv > pipe.log
cmp d2_out.csv pipe_out.csv

# Service round trip: serve → feed → query → SIGTERM → resume → compare.
# The stream is split at a window boundary (t = 1200 = snapshot 20 of 40
# at 60 s/window); graceful shutdown closes the open window and writes a
# checkpoint, so the resumed run must reproduce the batch companions
# byte for byte (d2_out.csv from the discover run above).
awk -F, '$2 < 1200'  d2.csv > feed_a.csv
awk -F, '$2 >= 1200' d2.csv > feed_b.csv
rm -f port.txt serve.ckpt

"$CLI" serve --algo bu --epsilon 24 --mu 5 --min-size 10 \
    --min-duration 10 --window-seconds 60 --port-file port.txt \
    --checkpoint serve.ckpt > serve1.log 2>&1 &
SERVE_PID=$!
wait_for_port_file port.txt
PORT=$(cat port.txt)

"$CLI" feed --csv feed_a.csv --port "$PORT" --flush --quiet > feed1.log
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
SERVE_PID=
grep -q "shut down gracefully" serve1.log
test -f serve.ckpt

rm -f port.txt
"$CLI" serve --algo bu --epsilon 24 --mu 5 --min-size 10 \
    --min-duration 10 --window-seconds 60 --port-file port.txt \
    --checkpoint serve.ckpt > serve2.log 2>&1 &
SERVE_PID=$!
wait_for_port_file port.txt
PORT=$(cat port.txt)

# Metrics scrape round trip: two scrapes must expose the same name/label
# sequence (values move between scrapes, the series set must not).
"$CLI" feed --port "$PORT" --query metrics --out metrics1.txt --quiet
"$CLI" feed --port "$PORT" --query metrics --out metrics2.txt --quiet
grep -q "tcomp_stage_seconds_bucket" metrics1.txt
grep -q "tcomp_records_ingested_total" metrics1.txt
grep -q "tcomp_snapshots_processed_total" metrics1.txt
sed 's/ [^ ]*$//' metrics1.txt > metrics1.names
sed 's/ [^ ]*$//' metrics2.txt > metrics2.names
cmp metrics1.names metrics2.names

"$CLI" feed --csv feed_b.csv --port "$PORT" --query companions \
    --out served.csv --shutdown --quiet > feed2.log
wait "$SERVE_PID"
SERVE_PID=
grep -q "resumed from serve.ckpt" serve2.log
cmp d2_out.csv served.csv

# Striped serve round trip: --shards 3 → SIGTERM mid-stream → resume at
# --shards 8. Checkpoints carry no stripe state (nothing survives a
# snapshot close), so resuming at a different count must reproduce the
# batch companions byte for byte, exactly like the one-stripe path.
"$CLI" discover --csv d2.csv --algo sc --epsilon 24 --mu 5 \
    --min-size 10 --min-duration 10 --window-seconds 60 \
    --out-csv sc_out.csv --quiet > run3.log

rm -f port.txt shard.ckpt
"$CLI" serve --algo sc --shards 3 --epsilon 24 --mu 5 --min-size 10 \
    --min-duration 10 --window-seconds 60 --port-file port.txt \
    --checkpoint shard.ckpt > serve3.log 2>&1 &
SERVE_PID=$!
wait_for_port_file port.txt
PORT=$(cat port.txt)
"$CLI" feed --csv feed_a.csv --port "$PORT" --flush --quiet > feed3.log
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
SERVE_PID=
grep -q "shards 3" serve3.log
grep -q "shut down gracefully" serve3.log
test -f shard.ckpt

rm -f port.txt
"$CLI" serve --algo sc --shards 8 --epsilon 24 --mu 5 --min-size 10 \
    --min-duration 10 --window-seconds 60 --port-file port.txt \
    --checkpoint shard.ckpt > serve4.log 2>&1 &
SERVE_PID=$!
wait_for_port_file port.txt
PORT=$(cat port.txt)

# The configured count is exposed and the name set is scrape-stable, as
# in the one-stripe block above.
"$CLI" feed --port "$PORT" --query metrics --out metrics3.txt --quiet
"$CLI" feed --port "$PORT" --query metrics --out metrics4.txt --quiet
grep -q '^tcomp_shards 8$' metrics3.txt
sed 's/ [^ ]*$//' metrics3.txt > metrics3.names
sed 's/ [^ ]*$//' metrics4.txt > metrics4.names
cmp metrics3.names metrics4.names

"$CLI" feed --csv feed_b.csv --port "$PORT" --query companions \
    --out shard_served.csv --shutdown --quiet > feed4.log
wait "$SERVE_PID"
SERVE_PID=
grep -q "resumed from shard.ckpt" serve4.log
grep -q "shards 8" serve4.log
cmp sc_out.csv shard_served.csv

# Binary-protocol round trip on the same split: batched binary INGEST →
# SIGTERM → resume → binary feed of the remainder. The binary path must
# reproduce the same batch companions byte for byte as the text path
# above — same port, protocol chosen by the first byte.
rm -f port.txt bserve.ckpt
"$CLI" serve --algo bu --epsilon 24 --mu 5 --min-size 10 \
    --min-duration 10 --window-seconds 60 --port-file port.txt \
    --checkpoint bserve.ckpt > serve5.log 2>&1 &
SERVE_PID=$!
wait_for_port_file port.txt
PORT=$(cat port.txt)

"$CLI" feed --csv feed_a.csv --port "$PORT" --binary --batch 128 \
    --flush > feed5.log
grep -q "record batches" feed5.log
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
SERVE_PID=
grep -q "shut down gracefully" serve5.log
test -f bserve.ckpt

rm -f port.txt
"$CLI" serve --algo bu --epsilon 24 --mu 5 --min-size 10 \
    --min-duration 10 --window-seconds 60 --port-file port.txt \
    --checkpoint bserve.ckpt > serve6.log 2>&1 &
SERVE_PID=$!
wait_for_port_file port.txt
PORT=$(cat port.txt)

"$CLI" feed --csv feed_b.csv --port "$PORT" --binary --batch 128 \
    --query companions --out bserved.csv --shutdown --quiet > feed6.log
wait "$SERVE_PID"
SERVE_PID=
grep -q "resumed from bserve.ckpt" serve6.log
cmp d2_out.csv bserved.csv

# Parked-path round trip: 512-record binary frames into a 64-record
# queue, so every frame parks part of its records until the worker
# drains. The served companions must still equal batch discover's, and
# the parked counter must show the path ran.
rm -f port.txt
"$CLI" serve --algo bu --epsilon 24 --mu 5 --min-size 10 \
    --min-duration 10 --window-seconds 60 --queue-capacity 64 \
    --port-file port.txt > serve7.log 2>&1 &
SERVE_PID=$!
wait_for_port_file port.txt
PORT=$(cat port.txt)

"$CLI" feed --csv d2.csv --port "$PORT" --binary --batch 512 \
    --query companions --out parked_served.csv --quiet > feed7.log
"$CLI" feed --port "$PORT" --query metrics --out metrics5.txt --quiet
grep -q '^tcomp_conn_records_parked_total [1-9]' metrics5.txt
"$CLI" feed --port "$PORT" --shutdown --quiet
wait "$SERVE_PID"
SERVE_PID=
cmp d2_out.csv parked_served.csv

# Blast smoke: a tiny self-hosted saturation run over both protocols.
# The verify pass must report byte-identical products for both, and the
# JSON report must carry both curves with every requested point.
"$CLI" blast --clients 2 --curve 2000,5000 --seconds 0.3 \
    --objects 40 --snapshots 10 --epsilon 20 --mu 2 --min-size 3 \
    --min-duration 2 --json blast.json > blast.log
grep -q "text identical" blast.log
grep -q "binary identical" blast.log
grep -q '"protocol": "text"' blast.json
grep -q '"protocol": "binary"' blast.json
grep -q '"text_identical": true' blast.json
grep -q '"binary_identical": true' blast.json

echo "cli smoke OK"
