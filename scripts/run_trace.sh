#!/usr/bin/env bash
# Captures every sidecar the three sidecar-writing drivers accept and
# sanity-checks them: each must be valid JSON (load the traces at
# https://ui.perfetto.dev or chrome://tracing), and the sweep sidecars
# (ablation_queue_depth: metrics, SLO health, flight dumps; city_scale:
# metrics, SLO health) must be byte-identical at --jobs 1 and --jobs 4.
#
# Usage: scripts/run_trace.sh [build-dir] [out-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
out_dir="${2:-$repo_root/traces}"

for bin in examples/adaptive_streaming bench/ablation_queue_depth bench/city_scale; do
  if [[ ! -x "$build_dir/$bin" ]]; then
    echo "not built; run: cmake -B '$build_dir' -S '$repo_root' && cmake --build '$build_dir' -j" >&2
    exit 1
  fi
done

mkdir -p "$out_dir"

echo "== adaptive_streaming -> $out_dir/adaptive_streaming.trace.json"
"$build_dir/examples/adaptive_streaming" \
  --trace "$out_dir/adaptive_streaming.trace.json" \
  --metrics "$out_dir/adaptive_streaming.metrics.json" > /dev/null

echo "== adaptive_streaming SLO health + flight dumps"
"$build_dir/examples/adaptive_streaming" \
  --slo "$out_dir/adaptive_streaming.health.json" \
  --flight "$out_dir/adaptive_streaming.flight.json" > /dev/null

echo "== validating JSON"
for f in trace metrics health flight; do
  python3 -m json.tool "$out_dir/adaptive_streaming.$f.json" > /dev/null
done

echo "== queue-depth sweep trace -> $out_dir/queue_depth.trace.json"
"$build_dir/bench/ablation_queue_depth" --jobs 0 \
  --trace "$out_dir/queue_depth.trace.json" > /dev/null
python3 -m json.tool "$out_dir/queue_depth.trace.json" > /dev/null

# Note: tracing rides a GIOP service context, so --trace adds real bytes
# to every twoway (DESIGN.md §7) — the determinism comparison therefore
# runs trace-free on both sides.
echo "== metrics determinism: ablation_queue_depth --jobs 1 vs --jobs 4"
"$build_dir/bench/ablation_queue_depth" --jobs 1 \
  --metrics "$out_dir/queue_depth.metrics.j1.json" > /dev/null
"$build_dir/bench/ablation_queue_depth" --jobs 4 \
  --metrics "$out_dir/queue_depth.metrics.j4.json" > /dev/null
python3 -m json.tool "$out_dir/queue_depth.metrics.j1.json" > /dev/null
cmp "$out_dir/queue_depth.metrics.j1.json" "$out_dir/queue_depth.metrics.j4.json"
mv "$out_dir/queue_depth.metrics.j1.json" "$out_dir/queue_depth.metrics.json"
rm -f "$out_dir/queue_depth.metrics.j4.json"

# SLO telemetry (DESIGN.md §12): the health-event stream and the flight
# dumps are merged in trial-index order like the metrics sidecar, so both
# must be byte-identical for any worker count.
echo "== SLO sidecar determinism: ablation_queue_depth --jobs 1 vs --jobs 4"
"$build_dir/bench/ablation_queue_depth" --jobs 1 \
  --slo "$out_dir/queue_depth.health.j1.json" \
  --flight "$out_dir/queue_depth.flight.j1.json" > /dev/null
"$build_dir/bench/ablation_queue_depth" --jobs 4 \
  --slo "$out_dir/queue_depth.health.j4.json" \
  --flight "$out_dir/queue_depth.flight.j4.json" > /dev/null
python3 -m json.tool "$out_dir/queue_depth.health.j1.json" > /dev/null
python3 -m json.tool "$out_dir/queue_depth.flight.j1.json" > /dev/null
cmp "$out_dir/queue_depth.health.j1.json" "$out_dir/queue_depth.health.j4.json"
cmp "$out_dir/queue_depth.flight.j1.json" "$out_dir/queue_depth.flight.j4.json"
mv "$out_dir/queue_depth.health.j1.json" "$out_dir/queue_depth.health.json"
mv "$out_dir/queue_depth.flight.j1.json" "$out_dir/queue_depth.flight.json"
rm -f "$out_dir/queue_depth.health.j4.json" "$out_dir/queue_depth.flight.j4.json"

echo "== city_scale sidecar determinism: --jobs 1 vs --jobs 4"
for j in 1 4; do
  "$build_dir/bench/city_scale" --jobs "$j" \
    --metrics "$out_dir/city_scale.metrics.j$j.json" \
    --slo "$out_dir/city_scale.health.j$j.json" > /dev/null
done
for f in metrics health; do
  python3 -m json.tool "$out_dir/city_scale.$f.j1.json" > /dev/null
  python3 -m json.tool "$out_dir/city_scale.$f.j4.json" > /dev/null
  cmp "$out_dir/city_scale.$f.j1.json" "$out_dir/city_scale.$f.j4.json"
  mv "$out_dir/city_scale.$f.j1.json" "$out_dir/city_scale.$f.json"
  rm -f "$out_dir/city_scale.$f.j4.json"
done

# The congested trials must actually breach (the sweep overloads a 10 Mbps
# bottleneck 2x): an empty health stream means the monitors are not wired.
python3 - "$out_dir/queue_depth.health.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
events = sum(len(t["health"]["events"]) for t in doc["trials"])
assert events > 0, "no SLO breach events in the congested sweep"
assert doc["merged"]["events"] == events, "merged event count mismatch"
print(f"   {events} health events across {len(doc['trials'])} trials")
EOF

echo "done; open the *.trace.json files in https://ui.perfetto.dev"
echo "flight dumps for post-mortems: $out_dir/queue_depth.flight.json"
