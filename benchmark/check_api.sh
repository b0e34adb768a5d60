#!/usr/bin/env bash
# Fails if the benchmark leans on an interface the ROADMAP means to delete.
#
# The benchmark must keep compiling while predecessors are removed, so it
# may use only the successors: Mvee/MveeBuilder, ThreadPort, AsyncThreadPort
# with Pollers::Pool, LeaderPort, Kernel::execute, the journal, snapshot and
# frame functions, the non-blocking try_*/poll_*/publish_outcome/consume
# face of LockstepTable, run_mvee/run_native and the default WaitStrategy.
set -u
cd "$(dirname "$0")"

banned=(
  # The index-addressed legacy gateway.
  'monitor\(\)\.syscall\('
  'Monitor::syscall'
  'VariantGateway'
  '\.gateway\('
  # Per-port gateway workers.
  'Pollers::PerPort'
  'async_default\('
  # The legacy wait loop (and choosing a wait strategy at all).
  'SpinYield'
  'wait_strategy\('
  # The blocking face of the rendezvous table.
  '\.arrive\('
  '\.rearrive\('
  '\.arrive_batch\('
  '\.rearrive_batch\('
  '\.wait_outcome\('
  '\.wait_outcome_until\('
)

status=0
for pattern in "${banned[@]}"; do
  if hits=$(grep -rnE -- "$pattern" src); then
    echo "banned interface /$pattern/:"
    echo "$hits"
    status=1
  fi
done
if [ "$status" -eq 0 ]; then
  echo "check_api: only the surviving interfaces are used"
fi
exit "$status"
