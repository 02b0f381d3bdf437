#!/usr/bin/env bash
# Runs the benchmark binaries and distills the google-benchmark JSON into
# one machine-readable BENCH_<name>.json per bench, so the performance
# trajectory can be tracked across PRs.
#
# Usage: bench/run_bench.sh [build_dir] [out_dir] [options] [extra benchmark flags...]
#
# Options:
#   --benches a,b,c        Run only these benches (names without the bench_
#                          prefix, e.g. "tc,wcoj"). Default: all.
#   --compare BASELINE     After running, compare wall times against a
#                          committed baseline: a BENCH_<name>.json file (or a
#                          directory of them; each is matched to the produced
#                          file of the same name). Exits 1 if the geometric
#                          mean of the per-benchmark new/baseline wall-time
#                          ratios exceeds the threshold, or if any baseline
#                          series is missing from the new run — the CI perf
#                          gate fails closed.
#   --compare-threshold P  Allowed regression in percent (default 25, or
#                          $REL_BENCH_TOLERANCE when set).
#   --compare-normalize R  Divide the gated geomean by the geomean ratio of
#                          benchmarks matching regex R (a reference series,
#                          e.g. a handwritten baseline that tracks machine
#                          speed but not engine changes). Cancels uniform
#                          hardware deltas when the committed baseline was
#                          recorded on a different box.
#
# Output schema (a JSON array, one object per benchmark run):
#   {
#     "bench":          "BM_TC_DatalogSemiNaive/n:64/random:1",
#     "n":              64,            // first size-like arg, null if none
#     "wall_ms":        4.2,           // real time per iteration, ms
#     "tuples_derived": 11972.0        // derived/tuples counter, null if none
#   }
# Extra per-run counters (probes, scans, triangles, ...) are passed through
# under "counters".

set -euo pipefail

BENCHES=(bench_tc bench_par bench_lowering bench_apsp bench_wcoj
         bench_aggregation bench_gnf bench_matmul bench_pagerank
         bench_transactions bench_wal bench_serving bench_incremental)

COMPARE_BASELINE=""
COMPARE_THRESHOLD="${REL_BENCH_TOLERANCE:-25}"
COMPARE_NORMALIZE=""
POSITIONAL=()
EXTRA_FLAGS=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --benches)
      IFS=',' read -r -a names <<< "$2"
      BENCHES=()
      for n in "${names[@]}"; do BENCHES+=("bench_${n#bench_}"); done
      shift 2
      ;;
    --compare)
      COMPARE_BASELINE=$2
      shift 2
      ;;
    --compare-threshold)
      COMPARE_THRESHOLD=$2
      shift 2
      ;;
    --compare-normalize)
      COMPARE_NORMALIZE=$2
      shift 2
      ;;
    *)
      if [[ ${#POSITIONAL[@]} -lt 2 && "$1" != -* ]]; then
        POSITIONAL+=("$1")
      else
        EXTRA_FLAGS+=("$1")
      fi
      shift
      ;;
  esac
done

BUILD_DIR=${POSITIONAL[0]:-build}
OUT_DIR=${POSITIONAL[1]:-"$BUILD_DIR/bench_json"}

mkdir -p "$OUT_DIR"

distill() {
  python3 - "$1" "$2" <<'EOF'
import json, sys

raw_path, out_path = sys.argv[1], sys.argv[2]
with open(raw_path) as f:
    raw = json.load(f)

def to_ms(value, unit):
    scale = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}
    return value * scale.get(unit, 1e-6)

rows = []
for b in raw.get("benchmarks", []):
    if b.get("run_type") == "aggregate":
        continue
    name = b.get("name", "")
    n = None
    for part in name.split("/")[1:]:
        key, _, val = part.partition(":")
        if key in ("n",) and val.lstrip("-").isdigit():
            n = int(val)
            break
        if not _ and key.lstrip("-").isdigit():  # positional arg
            n = int(key)
            break
    reserved = {
        "name", "run_name", "run_type", "family_index",
        "per_family_instance_index", "repetitions", "repetition_index",
        "threads", "iterations", "real_time", "cpu_time", "time_unit",
    }
    counters = {k: v for k, v in b.items()
                if k not in reserved and isinstance(v, (int, float))}
    derived = counters.pop("derived", None)
    if derived is None:
        derived = counters.pop("tuples", None)
    rows.append({
        "bench": name,
        "n": n,
        "wall_ms": to_ms(b.get("real_time", 0.0), b.get("time_unit", "ns")),
        "tuples_derived": derived,
        "counters": counters,
    })

with open(out_path, "w") as f:
    json.dump(rows, f, indent=1)
    f.write("\n")
EOF
}

# compare <baseline.json> <new.json> <threshold_pct> <normalize_regex>:
# per-benchmark ratio table plus a geometric-mean gate (the mean absorbs
# single-run noise better than an any-one-bench check). Baseline series
# missing from the new run fail the gate — a rename or a crashed fixture
# must not silently shrink what is being guarded. With a normalize regex,
# the gated geomean is divided by the reference series' geomean ratio so a
# uniform hardware speed delta between the baseline box and the CI runner
# cancels out.
compare() {
  python3 - "$1" "$2" "$3" "$4" <<'EOF'
import json, math, re, sys

base_path, new_path = sys.argv[1], sys.argv[2]
threshold, norm_regex = float(sys.argv[3]), sys.argv[4]
with open(base_path) as f:
    base = {r["bench"]: r["wall_ms"] for r in json.load(f)}
with open(new_path) as f:
    new = {r["bench"]: r["wall_ms"] for r in json.load(f)}

def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs))

ratios, ref_ratios, missing, invalid = [], [], [], []
print(f"--- bench regression check vs {base_path} "
      f"(threshold +{threshold:.0f}%) ---")
for name in sorted(base):
    if name not in new:
        print(f"  MISSING  {name} (in baseline, not in new run)")
        missing.append(name)
        continue
    if base[name] <= 0 or new[name] <= 0:
        # A series must not silently drop out of the gate.
        print(f"  INVALID  {name} (non-positive wall_ms)")
        invalid.append(name)
        continue
    ratio = new[name] / base[name]
    is_ref = bool(norm_regex) and re.search(norm_regex, name) is not None
    (ref_ratios if is_ref else ratios).append(ratio)
    flag = ("  REF    " if is_ref
            else "  SLOWER " if ratio > 1 + threshold / 100 else "         ")
    print(f"{flag}{name:55s} {base[name]:9.3f} -> {new[name]:9.3f} ms "
          f"({ratio:5.2f}x)")
for name in sorted(set(new) - set(base)):
    print(f"  NEW      {name} (not in baseline)")

fail = False
if missing:
    print(f"FAIL: {len(missing)} baseline series missing from the new run")
    fail = True
if invalid:
    print(f"FAIL: {len(invalid)} series with non-positive wall_ms")
    fail = True
if not ratios:
    print("no comparable (non-reference) benchmarks; failing the gate")
    sys.exit(1)
gm = geomean(ratios)
if norm_regex:
    if not ref_ratios:
        print(f"FAIL: normalize regex '{norm_regex}' matched no series")
        sys.exit(1)
    ref = geomean(ref_ratios)
    print(f"reference series ratio: {ref:.3f}x (machine-speed calibration)")
    gm /= ref
limit = 1 + threshold / 100
print(f"gated geometric mean ratio: {gm:.3f}x (limit {limit:.2f}x)")
if gm > limit:
    print("FAIL: wall time regressed beyond the threshold")
    fail = True
if fail:
    sys.exit(1)
print("OK")
EOF
}

STATUS=0
COMPARES_RUN=0
for bench in "${BENCHES[@]}"; do
  bin="$BUILD_DIR/$bench"
  if [[ ! -x "$bin" ]]; then
    echo "skip: $bench (not built)" >&2
    continue
  fi
  raw="$OUT_DIR/${bench}.raw.json"
  out="$OUT_DIR/BENCH_${bench#bench_}.json"
  echo "running $bench ..." >&2
  if ! "$bin" --benchmark_format=json "${EXTRA_FLAGS[@]}" > "$raw" \
      || [[ ! -s "$raw" ]]; then
    echo "skip: $bench (failed or no benchmarks matched)" >&2
    rm -f "$raw"
    continue
  fi
  if command -v python3 >/dev/null 2>&1; then
    distill "$raw" "$out"
    rm -f "$raw"
  else
    # No python3: keep the raw google-benchmark JSON under the stable name.
    mv "$raw" "$out"
  fi
  echo "wrote $out" >&2

  if [[ -n "$COMPARE_BASELINE" ]]; then
    baseline_file="$COMPARE_BASELINE"
    if [[ -d "$COMPARE_BASELINE" ]]; then
      baseline_file="$COMPARE_BASELINE/$(basename "$out")"
    fi
    if [[ "$(basename "$baseline_file")" == "$(basename "$out")" \
          && -f "$baseline_file" ]]; then
      COMPARES_RUN=$((COMPARES_RUN + 1))
      if ! compare "$baseline_file" "$out" "$COMPARE_THRESHOLD" \
                   "$COMPARE_NORMALIZE"; then
        STATUS=1
      fi
    fi
  fi
done
# The gate must fail closed: asking for a comparison that never happened
# (bench not built, run failed, baseline path matches nothing) is a failure,
# not a silent pass.
if [[ -n "$COMPARE_BASELINE" && "$COMPARES_RUN" -eq 0 ]]; then
  echo "error: --compare $COMPARE_BASELINE matched no produced bench output" >&2
  STATUS=1
fi
exit $STATUS
