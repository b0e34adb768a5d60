#!/usr/bin/env bash
# The whole suite — six workloads, both passes, every probe, every
# correctness check — at 2 % of the work and one second per timed pass.
# Finishes in under 30 s once built; ready to be wired into CI.
set -eu
cd "$(dirname "$0")"
./check_api.sh
cargo build --release --offline --quiet
target="${CARGO_TARGET_DIR:-target}"
exec "$target/release/mvee-benchmark" --scale 0.02 --seconds 1 --out-dir out "$@"
