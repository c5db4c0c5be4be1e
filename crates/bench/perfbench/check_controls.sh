#!/usr/bin/env bash
# Proves the benchmark's checks are live: an unmodified run must pass,
# and each deliberate violation must make the benchmark exit non-zero.
#
#   bash crates/bench/perfbench/check_controls.sh [workload] [seed]
#
# Run from the repository root. Controls:
#   poison-digest   one replica's delivery-order digest is poisoned before
#                   the audit (correctness gate; needs a workload where
#                   some replica never crashes, so not mixed_2safe_faults)
#   rogue-write     one replica gets a write the protocol never delivered
#                   (correctness gate: convergence)
#   wrapper-draw    the generator wrapper draws one extra random number
#                   (wrapped vs unwrapped fingerprint check)
#   traced-seed     the traced run uses another seed (traced vs untraced
#                   fingerprint check)
#   rerun-seed      the second untraced repeat uses another seed
#                   (same-seed rerun check)
set -u
workload="${1:-paper_group_safe}"
seed="${2:-7}"
bench=(cargo run --release --offline --quiet --manifest-path crates/bench/perfbench/Cargo.toml --)
common=(--workload "$workload" --seed "$seed" --seconds 1 --trace 0)

status=0
if "${bench[@]}" "${common[@]}" > /dev/null; then
    echo "ok: unmodified run passes"
else
    echo "FAIL: unmodified run did not pass"
    status=1
fi
for control in poison-digest rogue-write wrapper-draw traced-seed rerun-seed; do
    if "${bench[@]}" "${common[@]}" --control "$control" > /dev/null 2>&1; then
        echo "FAIL: control $control passed, so its check is not live"
        status=1
    else
        echo "ok: control $control fails the run"
    fi
done
exit "$status"
