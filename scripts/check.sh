#!/usr/bin/env bash
# The repo's static-quality gate: formatting, lints (warnings denied), and
# the full test suite. CI and the bench scripts call this before anything
# expensive; run it locally before pushing.
#
# Usage: scripts/check.sh
set -u
cd "$(dirname "$0")/.."

echo "== rustfmt (check) =="
cargo fmt --all -- --check || exit 1

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings || exit 1

echo "== tests =="
cargo test -q || exit 1

echo "== crate suites =="
# `cargo test` at the root runs only the facade package; these are the
# member crates' own suites: the fault engine's kernel/event bit-identity
# and oracle proptests, the store, netlist, programs, GPU model, ISA and
# ATPG suites, the JSON codec (obs) with its mutation fuzzer, and its
# readers and writers (serve, campaign, analyze, verify, core, cli).
cargo test -q -p warpstl-fault -p warpstl-store -p warpstl-netlist \
    -p warpstl-programs -p warpstl-gpu -p warpstl-isa -p warpstl-atpg \
    -p warpstl-obs -p warpstl-serve -p warpstl-campaign \
    -p warpstl-analyze -p warpstl-verify -p warpstl-core -p warpstl-cli || exit 1

echo "== xlint (workspace policy lint) =="
# Source-level policy rules (raw-sync, safety-comment, no-unwrap,
# timestamp-in-key); nonzero exit on any finding.
cargo run -q -p warpstl-cli -- xlint || exit 1

echo "== model checker (schedule exploration) =="
# The cfg(warpstl_model) build routes every warpstl-sync primitive through
# the schedule-exploring checker; these suites prove the serve-queue and
# store-commit invariants over all interleavings (own target dir so the
# RUSTFLAGS change does not invalidate the normal build's cache).
RUSTFLAGS="--cfg warpstl_model" CARGO_TARGET_DIR=target/model-cfg \
    cargo test -q -p warpstl-sync -p warpstl-serve -p warpstl-store \
    --test model || exit 1

echo "== rustdoc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q || exit 1

echo "== trace-out smoke test =="
# End-to-end observability check: compact a small PTP with --trace-out and
# validate that the emitted file is real JSON with one complete span per
# pipeline stage (plus the fault-engine worker spans).
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
cargo run -q --release -p warpstl-cli -- generate IMM --sb-count 4 \
    --out "$SMOKE_DIR/imm.ptp" || exit 1
cargo run -q --release -p warpstl-cli -- compact "$SMOKE_DIR/imm.ptp" \
    --trace-out "$SMOKE_DIR/trace.json" >/dev/null || exit 1
python3 - "$SMOKE_DIR/trace.json" <<'EOF' || exit 1
import json, sys

with open(sys.argv[1]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
complete = [e["name"] for e in events if e.get("ph") == "X"]
stages = ["stage.analyze", "stage.trace", "stage.fsim", "stage.label",
          "stage.reduce", "stage.verify", "stage.eval"]
for stage in stages:
    n = complete.count(stage)
    assert n == 1, f"expected exactly one {stage} span, found {n}"
assert complete.count("fsim.worker") >= 1, "missing fsim.worker spans"
assert "warpstlMetrics" in trace, "missing embedded metrics"
print(f"trace OK: {len(events)} events, all {len(stages)} stage spans present")
EOF

echo "== netlist analyzer smoke test =="
# The analyze command must produce valid JSON for a healthy bundled module
# and exit nonzero on the seeded combinational-loop fixture.
cargo run -q --release -p warpstl-cli -- analyze decoder_unit --json \
    > "$SMOKE_DIR/analyze.json" || exit 1
python3 - "$SMOKE_DIR/analyze.json" <<'EOF' || exit 1
import json, sys

with open(sys.argv[1]) as f:
    report = json.load(f)
assert report["errors"] == 0, f"decoder_unit should lint clean: {report}"
print(f"analyze OK: {report['netlist']}, {report['gates']} gates, 0 errors")
EOF
# The lint and xlint documents must be real JSON too: a clean generated
# PTP, and the (clean) workspace itself.
cargo run -q --release -p warpstl-cli -- lint "$SMOKE_DIR/imm.ptp" --json \
    > "$SMOKE_DIR/lint.json" || exit 1
cargo run -q --release -p warpstl-cli -- xlint --json > "$SMOKE_DIR/xlint.json" || exit 1
python3 - "$SMOKE_DIR/lint.json" "$SMOKE_DIR/xlint.json" <<'EOF' || exit 1
import json, sys

with open(sys.argv[1]) as f:
    lint = json.load(f)
assert lint["errors"] == 0, f"generated IMM PTP should verify clean: {lint}"
with open(sys.argv[2]) as f:
    xlint = json.load(f)
assert xlint["count"] == len(xlint["findings"]) == 0, xlint
print(f"lint/xlint JSON OK: {lint['program']} clean, workspace xlint clean")
EOF
if cargo run -q --release -p warpstl-cli -- analyze comb-loop >/dev/null 2>&1; then
    echo "analyze comb-loop should have exited nonzero" >&2
    exit 1
fi
echo "analyze comb-loop: nonzero exit as expected"

echo "== artifact-cache smoke test =="
# Cold run populates the cache, warm run must hit it (the cache summary
# line reports >= 1 hit) and reproduce the report JSON byte-for-byte; the
# cache subcommands must agree the entries are intact.
CACHE_DIR="$SMOKE_DIR/cache"
cargo run -q --release -p warpstl-cli -- compact "$SMOKE_DIR/imm.ptp" \
    --cache-dir "$CACHE_DIR" --json "$SMOKE_DIR/r1.json" \
    > "$SMOKE_DIR/cold.out" || exit 1
cargo run -q --release -p warpstl-cli -- compact "$SMOKE_DIR/imm.ptp" \
    --cache-dir "$CACHE_DIR" --json "$SMOKE_DIR/r2.json" \
    > "$SMOKE_DIR/warm.out" || exit 1
cmp "$SMOKE_DIR/r1.json" "$SMOKE_DIR/r2.json" || {
    echo "cold and warm report JSON differ" >&2
    exit 1
}
grep -Eq '^cache +[1-9][0-9]* hit' "$SMOKE_DIR/warm.out" || {
    echo "warm run reported no cache hits:" >&2
    cat "$SMOKE_DIR/warm.out" >&2
    exit 1
}
cargo run -q --release -p warpstl-cli -- cache stats --cache-dir "$CACHE_DIR" || exit 1
cargo run -q --release -p warpstl-cli -- cache verify --cache-dir "$CACHE_DIR" || exit 1
echo "cache OK: warm rerun hit the cache with byte-identical report JSON"

echo "== implication-engine smoke test =="
# The redundant-logic fixture must yield a nonzero count of statically
# proven-untestable fault sites in the analyze JSON (and warn, not fail:
# exit code stays zero).
cargo run -q --release -p warpstl-cli -- analyze redundant-logic \
    --implications --json > "$SMOKE_DIR/redundant.json" || exit 1
python3 - "$SMOKE_DIR/redundant.json" <<'EOF' || exit 1
import json, sys

with open(sys.argv[1]) as f:
    report = json.load(f)
assert report["errors"] == 0, f"redundant-logic should warn, not fail: {report}"
assert report["untestable"] > 0, f"no untestable proofs: {report}"
assert report["implication_edges"] > 0, f"no implication edges: {report}"
print(f"implications OK: {report['untestable']} proven untestable, "
      f"{report['implication_edges']} edges, {report['equiv_merges']} merges")
EOF

echo "== universe-pruning smoke test =="
# Dropping statically proven-untestable faults from the simulated universe
# must not change the deterministic report JSON (the proofs are sound, so
# pruned faults were never detectable). --no-cache keeps both runs honest.
cargo run -q --release -p warpstl-cli -- compact "$SMOKE_DIR/imm.ptp" \
    --no-cache --json "$SMOKE_DIR/pruned.json" >/dev/null || exit 1
cargo run -q --release -p warpstl-cli -- compact "$SMOKE_DIR/imm.ptp" \
    --no-cache --no-prune --json "$SMOKE_DIR/unpruned.json" >/dev/null || exit 1
cmp "$SMOKE_DIR/pruned.json" "$SMOKE_DIR/unpruned.json" || {
    echo "pruned and unpruned report JSON differ" >&2
    exit 1
}
grep -q '"untestable"' "$SMOKE_DIR/pruned.json" || {
    echo "report JSON missing the untestable field" >&2
    exit 1
}
echo "pruning OK: pruned and unpruned reports byte-identical"

echo "== cache version-miss smoke test =="
# Patch the format-version byte of every cached entry: the next run must
# degrade every read to a version miss (visible as the cache.miss.version
# counter in the embedded trace metrics) and still complete.
python3 - "$CACHE_DIR" <<'EOF' || exit 1
import pathlib, sys

patched = 0
for p in pathlib.Path(sys.argv[1]).iterdir():
    if p.suffix.lstrip(".") in ("ana", "fsr"):
        b = bytearray(p.read_bytes())
        b[8] ^= 0xFF  # format version u32 LE at offset 8
        p.write_bytes(bytes(b))
        patched += 1
assert patched > 0, "no cache entries to patch"
print(f"patched format version of {patched} entries")
EOF
cargo run -q --release -p warpstl-cli -- compact "$SMOKE_DIR/imm.ptp" \
    --cache-dir "$CACHE_DIR" --trace-out "$SMOKE_DIR/vm-trace.json" \
    >/dev/null || exit 1
python3 - "$SMOKE_DIR/vm-trace.json" <<'EOF' || exit 1
import json, sys

with open(sys.argv[1]) as f:
    trace = json.load(f)
counters = trace["warpstlMetrics"]["counters"]
n = counters.get("cache.miss.version", 0)
assert n >= 1, f"expected version misses, counters: {counters}"
print(f"version-miss OK: {n} version miss(es) counted")
EOF

echo "== sim-backend smoke test =="
# One module through both engine backends (no cache, so both actually
# simulate): the report JSON must be byte-identical — the CLI-level face of
# the kernel/event bit-identity contract.
cargo run -q --release -p warpstl-cli -- compact "$SMOKE_DIR/imm.ptp" \
    --sim-backend event --json "$SMOKE_DIR/be-event.json" >/dev/null || exit 1
cargo run -q --release -p warpstl-cli -- compact "$SMOKE_DIR/imm.ptp" \
    --sim-backend kernel --json "$SMOKE_DIR/be-kernel.json" >/dev/null || exit 1
cmp "$SMOKE_DIR/be-event.json" "$SMOKE_DIR/be-kernel.json" || {
    echo "event and kernel backend report JSON differ" >&2
    exit 1
}
# The same contract under the bridging fault model: both loops run the
# sampled bridges through the one engine entry point.
cargo run -q --release -p warpstl-cli -- compact "$SMOKE_DIR/imm.ptp" \
    --no-cache --fault-model bridging --sim-backend event \
    --json "$SMOKE_DIR/br-event.json" >/dev/null || exit 1
cargo run -q --release -p warpstl-cli -- compact "$SMOKE_DIR/imm.ptp" \
    --no-cache --fault-model bridging --sim-backend kernel \
    --json "$SMOKE_DIR/br-kernel.json" >/dev/null || exit 1
cmp "$SMOKE_DIR/br-event.json" "$SMOKE_DIR/br-kernel.json" || {
    echo "event and kernel backend bridging report JSON differ" >&2
    exit 1
}
echo "backend OK: event and kernel reports byte-identical (stuck-at and bridging)"

echo "== serve smoke test =="
# Start the daemon on an ephemeral port with a shared cache directory,
# probe /healthz and /metrics, then run two concurrent clients submitting
# the same module while `cache gc` runs against the same directory from
# separate processes. Both responses must be byte-identical to the solo
# CLI run's --json bytes, with no request errors, and POST /shutdown must
# drain cleanly (exit code 0).
SERVE_CACHE="$SMOKE_DIR/serve-cache"
cargo run -q --release -p warpstl-cli -- compact "$SMOKE_DIR/imm.ptp" \
    --no-cache --json "$SMOKE_DIR/serve-oracle.json" >/dev/null || exit 1
cargo run -q --release -p warpstl-cli -- serve --addr 127.0.0.1:0 \
    --workers 2 --cache-dir "$SERVE_CACHE" > "$SMOKE_DIR/serve.out" &
SERVE_PID=$!
SERVE_URL=""
for _ in $(seq 1 100); do
    SERVE_URL="$(sed -n 's/^serving on //p' "$SMOKE_DIR/serve.out")"
    [ -n "$SERVE_URL" ] && break
    sleep 0.1
done
if [ -z "$SERVE_URL" ]; then
    echo "serve did not print its URL" >&2
    kill "$SERVE_PID" 2>/dev/null
    exit 1
fi
python3 - "$SERVE_URL" "$SMOKE_DIR/imm.ptp" "$SMOKE_DIR/serve-oracle.json" <<'EOF' &
import json, sys, threading, urllib.request

url, ptp_path, oracle_path = sys.argv[1:4]
with open(ptp_path) as f:
    ptp = f.read()
with open(oracle_path, "rb") as f:
    oracle = f.read()

health = json.load(urllib.request.urlopen(url + "/healthz", timeout=30))
assert health["status"] == "ok", health

body = json.dumps({"ptp": ptp}).encode()
results = [None, None]
def client(i):
    req = urllib.request.Request(url + "/compact?format=report",
                                 data=body, method="POST")
    # urlopen raises on any non-2xx status, so an unexpected 4xx/5xx
    # fails the smoke here.
    results[i] = urllib.request.urlopen(req, timeout=300).read()
threads = [threading.Thread(target=client, args=(i,)) for i in range(2)]
for t in threads:
    t.start()
for t in threads:
    t.join()
for i, r in enumerate(results):
    assert r == oracle, f"client {i} response differs from the CLI --json bytes"

metrics = json.load(urllib.request.urlopen(url + "/metrics", timeout=30))
assert metrics["jobs"]["completed"] >= 2, metrics
assert metrics["jobs"]["failed"] == 0, metrics
assert metrics["jobs"]["rejected"] == 0, metrics
assert metrics["queue"]["workers"] == 2, metrics
assert metrics["cache"]["corrupt"] == 0, metrics
print(f"serve clients OK: 2 byte-identical responses, "
      f"{metrics['jobs']['completed']} job(s) completed")
EOF
CLIENTS_PID=$!
# Concurrent maintenance from separate processes against the same cache
# dir: must never disturb the in-flight jobs (the store's gc lock + temp
# age threshold are what this exercises).
for _ in 1 2 3; do
    cargo run -q --release -p warpstl-cli -- cache gc \
        --cache-dir "$SERVE_CACHE" >/dev/null || exit 1
done
wait "$CLIENTS_PID" || { echo "serve clients failed" >&2; exit 1; }
python3 - "$SERVE_URL" <<'EOF' || exit 1
import sys, urllib.request

req = urllib.request.Request(sys.argv[1] + "/shutdown", data=b"", method="POST")
reply = urllib.request.urlopen(req, timeout=30).read().decode()
assert "draining" in reply, reply
EOF
wait "$SERVE_PID" || { echo "serve exited nonzero" >&2; exit 1; }
grep -q '^drained$' "$SMOKE_DIR/serve.out" || {
    echo "serve did not report a clean drain:" >&2
    cat "$SMOKE_DIR/serve.out" >&2
    exit 1
}
echo "serve OK: concurrent clients byte-identical, gc concurrent, clean drain"

echo "== campaign smoke test =="
# A small matrix (2 modules x 2 lane shapes x both fault models) through
# the campaign runner twice against one cache directory: the second run
# is warm and uses a different pool width, yet the --json report must be
# byte-identical, and the warm run's cache summary must show hits.
CAMPAIGN_CACHE="$SMOKE_DIR/campaign-cache"
cat > "$SMOKE_DIR/campaign.json" <<'EOF'
{
    "name": "smoke",
    "modules": ["decoder_unit", "sfu"],
    "lanes": [8, 16],
    "fault_models": ["stuck-at", "bridging"],
    "sb_count": 3,
    "bridge_pairs": 32
}
EOF
cargo run -q --release -p warpstl-cli -- campaign "$SMOKE_DIR/campaign.json" \
    --cache-dir "$CAMPAIGN_CACHE" --jobs 1 --json "$SMOKE_DIR/c1.json" \
    > "$SMOKE_DIR/campaign-cold.out" || exit 1
cargo run -q --release -p warpstl-cli -- campaign "$SMOKE_DIR/campaign.json" \
    --cache-dir "$CAMPAIGN_CACHE" --jobs 4 --json "$SMOKE_DIR/c2.json" \
    > "$SMOKE_DIR/campaign-warm.out" || exit 1
cmp "$SMOKE_DIR/c1.json" "$SMOKE_DIR/c2.json" || {
    echo "campaign report JSON differs between jobs=1 and warm jobs=4" >&2
    exit 1
}
grep -Eq '^cache +[1-9][0-9]* hit' "$SMOKE_DIR/campaign-warm.out" || {
    echo "warm campaign run reported no cache hits:" >&2
    cat "$SMOKE_DIR/campaign-warm.out" >&2
    exit 1
}
grep -q '8 cell(s), 8 ok' "$SMOKE_DIR/campaign-warm.out" || {
    echo "campaign did not report 8 ok cells:" >&2
    cat "$SMOKE_DIR/campaign-warm.out" >&2
    exit 1
}
echo "campaign OK: 8-cell matrix byte-identical across pool widths, warm hits"

echo "check.sh: all green"
