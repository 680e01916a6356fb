#!/usr/bin/env bash
# Runs the micro benchmarks and writes machine-readable results.
#
# Usage:
#   tools/run_bench.sh [build_dir] [out_dir]
#
# build_dir defaults to ./build (must already be configured and built);
# out_dir defaults to the repo root, producing BENCH_pipeline.json,
# BENCH_bitplane.json, BENCH_lossless.json, BENCH_obs.json, and
# BENCH_serve.json there. Additional suites can be selected via
# MGARDP_BENCH_SUITES, a space-separated subset of: pipeline bitplane
# decompose dnn lossless storage obs serve cluster audit retrain. The
# `serve` suite drives
# the in-process retrieval service through the CLI (throughput and cache
# hit rate at 1/8/64 concurrent clients) instead of a google-benchmark
# binary; it runs traced (--trace), so BENCH_serve.json carries a
# per-"stages" profile. The Chrome timeline it also writes,
# BENCH_serve_trace.json, is a large local artifact for chrome://tracing
# and is not committed (.gitignore). The `obs` suite additionally prints the tracing-disabled span
# overhead extracted from its own results. The `audit` suite trains small
# D-MGARD/E-MGARD models and runs the error-control audit (`mgardp audit`)
# against ground truth on both simulated applications, producing
# BENCH_audit.json with per-model violation/overfetch/tightness/drift
# accounting. The `cluster` suite runs the kill-a-node chaos benchmark
# (replicated sharded backend, open-loop arrivals, one node killed at 50%
# of the request stream) and writes BENCH_cluster.json with failover,
# degradation, and p50/p99/p999 latency accounting. The `retrain` suite
# runs the online-retraining drill (`mgardp serve-bench --retrain`): a
# Gray-Scott-trained model is hit with WarpX traffic mid-run, the audit
# drift trigger refits and shadow-promotes a replacement without a
# restart, and BENCH_retrain.json records the per-phase violation rates,
# retrain/promotion counters, and the junk-candidate rejection proof.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
out_dir="${2:-${repo_root}}"
suites="${MGARDP_BENCH_SUITES:-pipeline bitplane lossless obs serve}"

if [[ ! -d "${build_dir}" ]]; then
  echo "error: build dir '${build_dir}' not found; run:" >&2
  echo "  cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

for suite in ${suites}; do
  if [[ "${suite}" == "serve" ]]; then
    cli="${build_dir}/tools/mgardp"
    if [[ ! -x "${cli}" ]]; then
      echo "error: CLI binary '${cli}' not built" >&2
      exit 1
    fi
    out="${out_dir}/BENCH_serve.json"
    trace_out="${out_dir}/BENCH_serve_trace.json"
    echo "== serve-bench (traced) -> ${out}, ${trace_out}"
    "${cli}" serve-bench \
      --app gray-scott --field D_u --dims 33,33,33 \
      --fields "${MGARDP_BENCH_SERVE_FIELDS:-4}" \
      --clients "${MGARDP_BENCH_SERVE_CLIENTS:-1,8,64}" \
      --rounds "${MGARDP_BENCH_SERVE_ROUNDS:-4}" \
      --trace "${trace_out}" \
      --json "${out}" >/dev/null
    continue
  fi
  if [[ "${suite}" == "cluster" ]]; then
    cli="${build_dir}/tools/mgardp"
    if [[ ! -x "${cli}" ]]; then
      echo "error: CLI binary '${cli}' not built" >&2
      exit 1
    fi
    out="${out_dir}/BENCH_cluster.json"
    echo "== cluster chaos bench -> ${out}"
    "${cli}" serve-bench \
      --shards "${MGARDP_BENCH_CLUSTER_SHARDS:-4}" \
      --replicas "${MGARDP_BENCH_CLUSTER_REPLICAS:-2}" \
      --kill-node-at "${MGARDP_BENCH_CLUSTER_KILL_AT:-50%}" \
      --requests "${MGARDP_BENCH_CLUSTER_REQUESTS:-96}" \
      --clients "${MGARDP_BENCH_CLUSTER_CLIENTS:-8}" \
      --json "${out}"
    continue
  fi
  if [[ "${suite}" == "retrain" ]]; then
    cli="${build_dir}/tools/mgardp"
    if [[ ! -x "${cli}" ]]; then
      echo "error: CLI binary '${cli}' not built" >&2
      exit 1
    fi
    out="${out_dir}/BENCH_retrain.json"
    echo "== online-retraining drill -> ${out}"
    "${cli}" serve-bench --retrain \
      --dims "${MGARDP_BENCH_RETRAIN_DIMS:-17,17,17}" \
      --frames "${MGARDP_BENCH_RETRAIN_FRAMES:-6}" \
      --epochs "${MGARDP_BENCH_RETRAIN_EPOCHS:-120}" \
      --json "${out}"
    continue
  fi
  if [[ "${suite}" == "audit" ]]; then
    cli="${build_dir}/tools/mgardp"
    if [[ ! -x "${cli}" ]]; then
      echo "error: CLI binary '${cli}' not built" >&2
      exit 1
    fi
    out="${out_dir}/BENCH_audit.json"
    work="${build_dir}/bench_audit_work"
    mkdir -p "${work}"
    echo "== audit suite -> ${out}"
    dims="${MGARDP_BENCH_AUDIT_DIMS:-17,17,17}"
    timesteps="${MGARDP_BENCH_AUDIT_TIMESTEPS:-4}"
    epochs="${MGARDP_BENCH_AUDIT_EPOCHS:-20}"
    for spec in "gray-scott:D_u:gray_scott" "warpx:E_x:warpx"; do
      app="${spec%%:*}"; rest="${spec#*:}"
      field="${rest%%:*}"; key="${rest#*:}"
      echo "   training ${app}/${field} models (epochs=${epochs})"
      "${cli}" train --model dmgard --app "${app}" --field "${field}" \
        --dims "${dims}" --timesteps "${timesteps}" --epochs "${epochs}" \
        --bounds-per-decade 1 --out "${work}/${key}_dmgard.bin" >/dev/null
      "${cli}" train --model emgard --app "${app}" --field "${field}" \
        --dims "${dims}" --timesteps "${timesteps}" --epochs "${epochs}" \
        --bounds-per-decade 1 --out "${work}/${key}_emgard.bin" >/dev/null
      echo "   auditing ${app}/${field}"
      "${cli}" audit --app "${app}" --field "${field}" --dims "${dims}" \
        --timesteps "${timesteps}" --bounds-per-decade 1 \
        --dmgard "${work}/${key}_dmgard.bin" \
        --emgard "${work}/${key}_emgard.bin" \
        --json "${work}/${key}.json"
    done
    printf '{"benchmark":"audit","gray_scott":%s,"warpx":%s}\n' \
      "$(cat "${work}/gray_scott.json")" "$(cat "${work}/warpx.json")" \
      > "${out}"
    continue
  fi
  bin="${build_dir}/bench/micro_${suite}"
  if [[ ! -x "${bin}" ]]; then
    echo "error: benchmark binary '${bin}' not built" >&2
    exit 1
  fi
  out="${out_dir}/BENCH_${suite}.json"
  echo "== micro_${suite} -> ${out}"
  "${bin}" \
    --benchmark_format=json \
    --benchmark_out="${out}" \
    --benchmark_out_format=json \
    --benchmark_repetitions="${MGARDP_BENCH_REPS:-1}" \
    >/dev/null
  if [[ "${suite}" == "obs" ]] && command -v python3 >/dev/null 2>&1; then
    # Span overhead numbers. The disabled-path delta is reported in
    # absolute ns/span (the baseline loop is ~100 ns, so a percentage of
    # it would be meaningless for the ms-scale stages spans actually
    # wrap); the pipeline pair gives the end-to-end enabled tax.
    python3 - "${out}" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    runs = {b["name"]: b["real_time"] for b in json.load(f)["benchmarks"]}
off, on = runs.get("BM_SpanDisabled"), runs.get("BM_SpanEnabled")
bare = runs.get("BM_SpanBaseline")
if off and bare:
    print(f"   span cost, tracing disabled: {off - bare:.1f} ns "
          f"(enabled: {on - bare:.1f} ns)" if on else "")
req = runs.get("BM_SpanRequestMode")
if req and bare:
    print(f"   span cost, request mode + context: {req - bare:.1f} ns")
poff, pon = runs.get("BM_PipelineTraceOff"), runs.get("BM_PipelineTraceOn")
if poff and pon:
    print("   end-to-end pipeline tax with tracing ON: "
          f"{100.0 * (pon - poff) / poff:+.2f}%")
preq = runs.get("BM_PipelineRequestTraceOn")
if poff and preq:
    print("   end-to-end pipeline tax with --trace-requests ON: "
          f"{100.0 * (preq - poff) / poff:+.2f}%")
EOF
  fi
done

echo "done."
