#!/usr/bin/env bash
# Simulator-core performance proof for the allocation-free hot path
# (pooled events, inline event closures, pooled wire payloads):
#
#   1. Release-build bench/micro_sim plus the paper bench, which runs
#      two representative figures — fig04 (event/interrupt bound) and
#      fig08 (packet bound);
#   2. run the google-benchmark suite to JSON;
#   3. wall-clock `paper --figure fig04` and `--figure fig08` at --jobs 1
#      (bash's EPOCHREALTIME — the container has no /usr/bin/time), each
#      recorded under its figure's archive bench name;
#   4. fold the numbers into BENCH_sim_core.json via stdlib python3:
#      the "current" block is refreshed, the committed "baseline" block
#      (measured on the pre-optimization tree) is preserved, and the
#      per-benchmark speedups are printed.
#
# Benchmark numbers are only meaningful on an otherwise idle machine.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_JSON=BENCH_sim_core.json
BUILD=build-perf
FIGS=(fig04_polling_avail_portals fig08_polling_bw_gm_vs_portals)

cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD" -j --target micro_sim paper

raw=$(mktemp) wall=$(mktemp)
trap 'rm -f "$raw" "$wall"' EXIT

"$BUILD"/bench/micro_sim --benchmark_out="$raw" --benchmark_out_format=json

for fig in "${FIGS[@]}"; do
  scratch=$(mktemp -d)
  start=$EPOCHREALTIME
  "$BUILD"/bench/paper --figure "${fig%%_*}" --jobs 1 --csv --out "$scratch" \
    >/dev/null
  end=$EPOCHREALTIME
  rm -rf "$scratch"
  echo "$fig $start $end" >> "$wall"
done

python3 - "$raw" "$wall" "$BENCH_JSON" <<'PY'
import json, sys

raw_path, wall_path, out_path = sys.argv[1:4]

with open(raw_path) as f:
    raw = json.load(f)
# Google Benchmark reports real_time in each row's registered Unit().
NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
current = {"benchmarks": {}, "figure_wallclock_seconds": {}}
for b in raw["benchmarks"]:
    if b.get("run_type", "iteration") != "iteration":
        continue  # skip aggregate rows
    current["benchmarks"][b["name"]] = {
        "items_per_second": round(b.get("items_per_second", 0.0), 1),
        "real_time_ns": round(
            b["real_time"] * NS_PER_UNIT[b.get("time_unit", "ns")], 1),
    }
with open(wall_path) as f:
    for line in f:
        fig, start, end = line.split()
        current["figure_wallclock_seconds"][fig] = round(
            float(end) - float(start), 3)

try:
    with open(out_path) as f:
        report = json.load(f)
except FileNotFoundError:
    report = {}
report["current"] = current
with open(out_path, "w") as f:
    json.dump(report, f, indent=2, sort_keys=True)
    f.write("\n")

base = report.get("baseline", {})
print(f"\n{'benchmark':<42} {'baseline':>12} {'current':>12} {'speedup':>8}")
for name, cur in current["benchmarks"].items():
    b = base.get("benchmarks", {}).get(name, {}).get("items_per_second")
    c = cur["items_per_second"]
    ratio = f"{c / b:.2f}x" if b else "-"
    bs = f"{b / 1e6:.2f}M/s" if b else "-"
    print(f"{name:<42} {bs:>12} {c / 1e6:>10.2f}M/s {ratio:>8}")
for fig, secs in current["figure_wallclock_seconds"].items():
    b = base.get("figure_wallclock_seconds", {}).get(fig)
    ratio = f"{b / secs:.2f}x" if b else "-"
    bs = f"{b:.2f}s" if b else "-"
    print(f"{fig:<42} {bs:>12} {secs:>11.2f}s {ratio:>8}")
print(f"\nwrote {out_path}")
PY
