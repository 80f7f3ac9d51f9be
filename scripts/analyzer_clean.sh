#!/usr/bin/env bash
# Analyzer-clean gate: the full static verifier — including the pass-4
# kernel-IR dataflow analysis (SCL4xx) — must report zero error
# diagnostics for every bundled benchmark on every supported device, and
# for every bundled .stencil example. `stencil_compiler --analyze` exits
# nonzero when any error-severity diagnostic fires, so this script is a
# pure fan-out; CI runs it as the `analyzer-clean` job.
set -euo pipefail
cd "$(dirname "$0")/.."

COMPILER=build/examples/stencil_compiler
if [ ! -x "$COMPILER" ]; then
  echo "error: $COMPILER is missing; build the repo first" >&2
  exit 1
fi

BENCHMARKS=(Jacobi-1D Jacobi-2D Jacobi-3D HotSpot-2D HotSpot-3D FDTD-2D FDTD-3D)
# The device matrix spans both memory systems: three single-channel DDR
# boards, plus the HBM parts (xcu280, s10mx) whose multi-bank model
# opens the spatial-replication axis — their DSE winners routinely carry
# R > 1, so the replicated emission paths are verified at the optimum.
DEVICES=(xc7vx690t xc7vx485t xcku115 xcu280 s10mx)
STENCIL_FILES=(examples/highorder.stencil)

for f in "${STENCIL_FILES[@]}"; do
  if [ ! -f "$f" ]; then
    echo "error: expected stencil input '$f' is missing" >&2
    exit 1
  fi
done

checked=0
for device in "${DEVICES[@]}"; do
  for input in "${BENCHMARKS[@]}" "${STENCIL_FILES[@]}"; do
    echo "analyze $input on $device"
    "$COMPILER" "$input" --device "$device" --analyze --no-sim > /dev/null
    checked=$((checked + 1))
  done
done

# Family matrix on the default device: force each design family so BOTH
# architectures' emitted kernels are verified for every benchmark — the
# auto policy above only ever checks the predicted winner.
for family in pipe-tiling temporal-shift; do
  for input in "${BENCHMARKS[@]}"; do
    echo "family-matrix: $input --family $family"
    "$COMPILER" "$input" --family "$family" --analyze --no-sim > /dev/null
    checked=$((checked + 1))
  done
done

# Replication leg: the per-device loop above verifies whatever design
# wins on each part, but nothing guarantees BOTH families' replicated
# emission paths (R pipe-wired kernel texts; link-time compute units
# with the wave-structured multi-queue host) get exercised on an HBM
# part. Force each family on one multi-bank device so the R > 1
# emitters are held to the zero-diagnostic bar every run.
for family in pipe-tiling temporal-shift; do
  for input in "${BENCHMARKS[@]}"; do
    echo "replication-matrix: $input --device xcu280 --family $family"
    "$COMPILER" "$input" --device xcu280 --family "$family" --analyze \
      --no-sim > /dev/null
    checked=$((checked + 1))
  done
done

echo "analyzer-clean: $checked configuration(s) verified, zero errors"
