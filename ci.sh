#!/usr/bin/env bash
# Offline CI gate: format, lint, build, test, smoke-run.
# Everything here must pass with no network access and no pre-fetched
# third-party crates (the workspace has zero external dependencies).
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test"
cargo test --workspace -q

echo "==> motbench self-test (tiny sizes)"
# The benchmark is a package of its own; building and testing it here makes
# a change to any API it imports fail CI rather than the benchmark run.
cargo test --offline --manifest-path motbench/Cargo.toml -q

echo "==> smoke: parallel strategies on g27"
cargo run --release -p motsim-cli --bin motsim -- strategies g27 --len 40 --jobs 2

echo "==> smoke: worker-count determinism (--jobs 4 vs --jobs 1)"
# Verdicts, BDD stats, and everything except elapsed times and worker
# counts must be byte-identical for any --jobs N.
smoke() {
  cargo run --release -q -p motsim-cli --bin motsim -- \
    strategies g27 --len 40 --bdd-stats --jobs "$1" 2>/dev/null |
    sed 's/ in .*//'
}
diff <(smoke 1) <(smoke 4)

echo "==> smoke: reorder-policy verdict equivalence (sift vs none)"
# Dynamic reordering may only change *where* the hybrid falls back (and
# how long runs take) — never a fault verdict. Strip elapsed times and the
# approximation marker (sifting can legitimately change fallback counts),
# then the sweeps must be byte-identical.
reorder_sweep() {
  for c in g27 g208 g298; do
    cargo run --release -q -p motsim-cli --bin motsim -- \
      strategies "$c" --len 40 --limit 30000 --reorder "$1" --jobs 2 2>/dev/null |
      sed -e 's/ in .*//' -e 's/ (\*)//'
  done
}
diff <(reorder_sweep none) <(reorder_sweep sift)

echo "==> smoke: structured trace (g208, --trace + trace-check)"
# The JSONL stream must parse, keep frames monotone within each unit
# bracket, and be byte-identical for every --jobs value.
TRACE_DIR=$(mktemp -d)
trap 'rm -rf "$TRACE_DIR"' EXIT
trace_smoke() {
  cargo run --release -q -p motsim-cli --bin motsim -- \
    strategies g208 --len 40 --limit 2000 --units 8 --jobs "$1" \
    --trace "$TRACE_DIR/j$1.jsonl" >/dev/null 2>&1
}
trace_smoke 1
trace_smoke 4
cargo run --release -q -p motsim-cli --bin motsim -- trace-check "$TRACE_DIR/j1.jsonl"
cmp "$TRACE_DIR/j1.jsonl" "$TRACE_DIR/j4.jsonl"

echo "==> smoke: three-valued trace (g298 sim3, --trace + trace-check)"
# The same contract for the three-valued engine path.
sim3_trace_smoke() {
  cargo run --release -q -p motsim-cli --bin motsim -- \
    sim3 g298 --len 60 --units 8 --jobs "$1" \
    --trace "$TRACE_DIR/sim3_j$1.jsonl" >/dev/null 2>&1
}
sim3_trace_smoke 1
sim3_trace_smoke 4
cargo run --release -q -p motsim-cli --bin motsim -- trace-check "$TRACE_DIR/sim3_j1.jsonl"
cmp "$TRACE_DIR/sim3_j1.jsonl" "$TRACE_DIR/sim3_j4.jsonl"

echo "==> smoke: node-limit trace (g298 strategies, --trace + trace-check)"
# The same contract on the hybrid's limit path, which the g208 smoke never
# reaches: at 20,000 nodes g298 hits the limit, sifts, and falls back to
# three-valued frames and out again, and the stream must record all of it.
limit_trace_smoke() {
  cargo run --release -q -p motsim-cli --bin motsim -- \
    strategies g298 --len 20 --limit 20000 --reorder sift --jobs "$1" \
    --trace "$TRACE_DIR/limit_j$1.jsonl" >/dev/null 2>&1
}
limit_trace_smoke 1
limit_trace_smoke 4
cargo run --release -q -p motsim-cli --bin motsim -- trace-check "$TRACE_DIR/limit_j1.jsonl"
cmp "$TRACE_DIR/limit_j1.jsonl" "$TRACE_DIR/limit_j4.jsonl"
for ev in node_limit sift_pass fallback_enter fallback_exit; do
  grep -q "\"ev\":\"$ev\"" "$TRACE_DIR/limit_j1.jsonl"
done

echo "==> smoke: large-circuit three-valued run (g38417 sim3, --jobs 1 vs 2)"
# ID_X-red plus three-valued simulation of g38417's 50,247 faults over 200
# vectors: the start of a pinned stress tier. The verdict line is pinned and
# must not depend on --jobs.
sim3_large() {
  cargo run --release -q -p motsim-cli --bin motsim -- \
    sim3 g38417 --len 200 --jobs "$1" 2>/dev/null |
    sed 's/ in .*//'
}
sim3_large 1 >"$TRACE_DIR/g38417_j1.txt"
sim3_large 2 >"$TRACE_DIR/g38417_j2.txt"
diff "$TRACE_DIR/g38417_j1.txt" "$TRACE_DIR/g38417_j2.txt"
grep -q "50247 faults (28608 X-redundant eliminated): 10241 detected" "$TRACE_DIR/g38417_j1.txt"

echo "==> smoke: differential fuzzing (pinned seed, determinism)"
# The in-tree property harness must find zero counterexamples on the
# pinned seed, and its report must be byte-identical across runs.
fuzz_smoke() {
  cargo run --release -q -p motsim-cli --bin motsim -- \
    fuzz --seed 0xDAC95 --cases 32 --max-dffs 5
}
fuzz_smoke >"$TRACE_DIR/fuzz1.txt"
fuzz_smoke >"$TRACE_DIR/fuzz2.txt"
cmp "$TRACE_DIR/fuzz1.txt" "$TRACE_DIR/fuzz2.txt"
grep -q "0 counterexample(s)" "$TRACE_DIR/fuzz1.txt"

echo "==> smoke: paper tables (table1 --jobs 1 vs 2, figs verdicts)"
# Table I's counts must not depend on --jobs; its last three columns are
# times and are stripped. The Fig. 1-3 walkthroughs grade nine
# (figure, strategy) pairs, four of which detect the fault.
table1_smoke() {
  cargo run --release -q -p motsim-cli --bin motsim -- \
    tables table1 --quick --len 20 --jobs "$1" |
    sed -E 's/( +[^ ]+){3}$//'
}
diff <(table1_smoke 1) <(table1_smoke 2)
cargo run --release -q -p motsim-cli --bin motsim -- tables figs >"$TRACE_DIR/figs.txt"
test "$(grep -c ': DETECTED' "$TRACE_DIR/figs.txt")" -eq 4
test "$(grep -c ': not detected' "$TRACE_DIR/figs.txt")" -eq 5

echo "==> smoke: hybrid under node-limit pressure (table2 --jobs 1 vs 2)"
# Table II runs the hybrid SOT/rMOT/MOT simulators at 30,000 nodes; several
# rows fall back (`*`). Its counts must not depend on --jobs (the last three
# columns are times and are stripped), and the column sums are pinned.
table2_smoke() {
  cargo run --release -q -p motsim-cli --bin motsim -- \
    tables table2 --quick --jobs "$1" >"$TRACE_DIR/table2_j$1.txt"
}
table2_smoke 1
table2_smoke 2
diff <(sed -E 's/( +[^ ]+){3}$//' "$TRACE_DIR/table2_j1.txt") \
  <(sed -E 's/( +[^ ]+){3}$//' "$TRACE_DIR/table2_j2.txt")
grep -q "Σ detected: SOT 279  rMOT 304  MOT 292" "$TRACE_DIR/table2_j1.txt"

echo "==> smoke: long hybrid reference run (g526 strategies --len 100)"
# A long hybrid run under node-limit pressure: every strategy falls back, and MOT
# spends 1,617 frames three-valued. With times and the `bdd:` counter lines
# stripped, the verdicts, the approximation markers and the fallback-frame
# counts are pinned, so a change that moves a MOT fallback point fails here.
cargo run --release -q -p motsim-cli --bin motsim -- \
  strategies g526 --len 100 --jobs 2 --bdd-stats 2>/dev/null |
  sed 's/ in .*//' | grep -v '^  bdd:' >"$TRACE_DIR/g526_len100.txt"
diff - "$TRACE_DIR/g526_len100.txt" <<'PINNED'
g526: |F| = 569, three-valued detects 15, 554 hard faults remain
  SOT: +16    detected (*)
  reorder: 0 sifting pass(es), 0 level swap(s); 1322 fallback frame(s)
  rMOT: +32    detected (*)
  reorder: 0 sifting pass(es), 0 level swap(s); 1322 fallback frame(s)
  MOT: +0     detected (*)
  reorder: 0 sifting pass(es), 0 level swap(s); 1617 fallback frame(s)
PINNED

echo "==> smoke: deterministic sequences (table3 --jobs 1 vs 2)"
# Table III runs the hybrid SOT/rMOT/MOT simulators on the `tgen` sequences.
# Its counts must not depend on --jobs (the last three columns are times and
# are stripped), and the g526 row is pinned.
table3_smoke() {
  cargo run --release -q -p motsim-cli --bin motsim -- \
    tables table3 --quick --jobs "$1" | sed -E 's/( +[^ ]+){3}$//'
}
table3_smoke 1 >"$TRACE_DIR/table3_j1.txt"
table3_smoke 2 >"$TRACE_DIR/table3_j2.txt"
diff "$TRACE_DIR/table3_j1.txt" "$TRACE_DIR/table3_j2.txt"
grep -qE '^ +g526 +23 +569 +565 \| +\*29 +\*44 +\*0 \|$' "$TRACE_DIR/table3_j1.txt"

echo "==> smoke: node-limit sweep (tables limits --quick)"
# The one table that runs the hybrid engine directly, without sharding: MOT
# on g420 and g526 at five node limits. With the time column stripped, every
# row (detections, fallback frames, skipped terms) is pinned.
cargo run --release -q -p motsim-cli --bin motsim -- tables limits --quick |
  sed -E 's/ +[0-9.]+$//' >"$TRACE_DIR/limits.txt"
diff - "$TRACE_DIR/limits.txt" <<'PINNED'

Node-limit sweep: hybrid MOT on g420 / g526 (50 random vectors)
    Circ.    limit    det  fb-frames  skipped  time[s]
     g420      500      1         31        0
     g420     2000      2          8        0
     g420    10000      2          0        0
     g420    30000      2          0        0
     g420   120000      2          0        0
     g526      500      0         50        0
     g526     2000      0         50        0
     g526    10000      0         50        0
     g526    30000      0         50        0
     g526   120000      0         46        0
PINNED

echo "==> smoke: test evaluation (g5378 and g953 testeval, Table IV)"
# The default g5378 and g953 sequences pin their symbolic output sequences'
# size and prefix, the fault-free response's witness count, and where a
# one-bit corruption collapses the product; g953's sequence starts with a
# five-frame three-valued prefix. Table IV asserts that every fault-free
# response is accepted; with the evaluation time column stripped, every row
# (BDD size, asterisk, prefix) is pinned.
cargo run --release -q -p motsim-cli --bin motsim -- testeval g5378 >"$TRACE_DIR/testeval.txt"
grep -q "shared BDD size 261, prefix 1" "$TRACE_DIR/testeval.txt"
grep -qF "(≥ 2^128 witness state(s))" "$TRACE_DIR/testeval.txt"
grep -q "corrupted response rejected (product collapsed at frame 0, output 2)" "$TRACE_DIR/testeval.txt"
cargo run --release -q -p motsim-cli --bin motsim -- testeval g953 >"$TRACE_DIR/testeval_g953.txt"
grep -q "shared BDD size 20, prefix 5" "$TRACE_DIR/testeval_g953.txt"
grep -qF "(6291456 witness state(s))" "$TRACE_DIR/testeval_g953.txt"
grep -q "corrupted response rejected (product collapsed at frame 0, output 10)" "$TRACE_DIR/testeval_g953.txt"
cargo run --release -q -p motsim-cli --bin motsim -- tables table4 --quick |
  sed -E 's/ +[0-9.]+$//' >"$TRACE_DIR/table4.txt"
diff - "$TRACE_DIR/table4.txt" <<'PINNED'

Table IV: symbolic test evaluation (30,000-node limit)
    Circ.   PO   |T|  BDD size  prefix  eval[µs]
     g208    1    50        15       0
     g420    1    50        31       0
     g510    7    50         7       0
     g953   23    50       *20       5
     g838    1    50        63       0
PINNED

echo "==> smoke: synchronizing-sequence search (synch g526)"
# The greedy symbolic search scores 16 lookahead frames per committed one
# and leaves them behind as garbage, which the unlimited manager collects
# past 2^20 live nodes. The sequence's checksum and, with the time stripped,
# the verdict line are pinned.
cargo run --release -q -p motsim-cli --bin motsim -- synch g526 \
  >"$TRACE_DIR/synch_g526.txt" 2>"$TRACE_DIR/synch_g526.err"
test "$(cksum <"$TRACE_DIR/synch_g526.txt")" = "1323479339 104"
test "$(sed -E 's/ in [0-9.]+[a-zµ]*s / /' "$TRACE_DIR/synch_g526.err")" = \
  "synchronizing sequence of length 26 found (three-valued logic provably cannot find it)"

echo "==> smoke: controllability (static ID_X-red and SCOAP on g838, g5378)"
# Both analyses read one controllability pass. With the time stripped, the
# static ID_X-red counts and the SCOAP untestable counts are pinned, and so
# is a checksum of every CC0/CC1/CO cell SCOAP prints for g5378.
for c in g838 g5378; do
  cargo run --release -q -p motsim-cli --bin motsim -- xred "$c" --static 2>/dev/null |
    sed -E 's/, [0-9.]+[a-zµ]*s\)$/)/'
  cargo run --release -q -p motsim-cli --bin motsim -- scoap "$c" 2>&1 >/dev/null
done >"$TRACE_DIR/controllability.txt"
diff - "$TRACE_DIR/controllability.txt" <<'PINNED'
107 of 502 faults are X-redundant (for ANY sequence)
395 faults remain for simulation
499 of 502 collapsed faults are SCOAP-untestable
4262 of 7638 faults are X-redundant (for ANY sequence)
3376 faults remain for simulation
3664 of 7638 collapsed faults are SCOAP-untestable
PINNED
test "$(cargo run --release -q -p motsim-cli --bin motsim -- scoap g5378 2>/dev/null | cksum)" = "2518255165 70200"

echo "==> examples (release, their asserts enabled)"
for example in examples/*.rs; do
  cargo run --release -q --example "$(basename "$example" .rs)" >/dev/null
done

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "CI OK"
