# End-to-end smoke test of the mgardp CLI, driven by ctest.
# Usage: cmake -DCLI=<path-to-mgardp> -P cli_test.cmake

if(NOT DEFINED CLI)
  message(FATAL_ERROR "pass -DCLI=<mgardp binary>")
endif()

set(WORK "${CMAKE_CURRENT_BINARY_DIR}/cli_test_work")
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

function(run_cli expect_rc)
  execute_process(
    COMMAND ${CLI} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL ${expect_rc})
    message(FATAL_ERROR "mgardp ${ARGN} -> rc=${rc} (wanted ${expect_rc})\n"
                        "stdout:\n${out}\nstderr:\n${err}")
  endif()
  set(LAST_OUT "${out}" PARENT_SCOPE)
endfunction()

# Happy path: generate -> refactor (non 2^k+1 dims) -> info -> retrieve ->
# verify.
run_cli(0 generate --app warpx --field J_x --dims 20,20,20 --timestep 3
        --out ${WORK}/f.f64)
run_cli(0 refactor --input ${WORK}/f.f64 --dims 20,20,20
        --out ${WORK}/art)
run_cli(0 info --dir ${WORK}/art)
if(NOT LAST_OUT MATCHES "original 20x20x20")
  message(FATAL_ERROR "info did not report the original dims:\n${LAST_OUT}")
endif()
# Every stored container names its codec; none may be unknown.
if(NOT LAST_OUT MATCHES "codecs: [a-z]+=[0-9]+" OR LAST_OUT MATCHES "unknown=")
  message(FATAL_ERROR "info did not name the codec mix:\n${LAST_OUT}")
endif()
run_cli(0 retrieve --dir ${WORK}/art --rel-error 1e-3 --out ${WORK}/r.f64)
run_cli(0 verify --original ${WORK}/f.f64 --reconstructed ${WORK}/r.f64)
if(NOT LAST_OUT MATCHES "psnr")
  message(FATAL_ERROR "verify output unexpected:\n${LAST_OUT}")
endif()

# PSNR-driven retrieval through the snorm estimator.
run_cli(0 retrieve --dir ${WORK}/art --psnr 80 --estimator snorm
        --out ${WORK}/p.f64)

# Every codec name (and the auto policy) writes an archive the reader
# retrieves transparently: the container's per-segment codec id routes
# decode with no side channel.
foreach(codec pipeline rice auto)
  run_cli(0 refactor --input ${WORK}/f.f64 --dims 20,20,20
          --codec ${codec} --out ${WORK}/art_${codec})
  run_cli(0 retrieve --dir ${WORK}/art_${codec} --rel-error 1e-3
          --out ${WORK}/r_${codec}.f64)
  run_cli(0 verify --original ${WORK}/f.f64
          --reconstructed ${WORK}/r_${codec}.f64)
endforeach()

# Train a small E-MGARD model and retrieve with it.
run_cli(0 train --model emgard --app warpx --field J_x --dims 17,17,17
        --timesteps 4 --epochs 5 --bounds-per-decade 1
        --out ${WORK}/emgard.bin)
run_cli(0 refactor --input ${WORK}/f.f64 --dims 20,20,20
        --out ${WORK}/art2)
run_cli(0 retrieve --dir ${WORK}/art2 --rel-error 1e-3
        --emgard ${WORK}/emgard.bin --out ${WORK}/e.f64)

# Scrub: a clean artifact passes; a flipped bit is detected, names the
# (level, plane), and exits 3.
run_cli(0 scrub --dir ${WORK}/art)
if(NOT LAST_OUT MATCHES "0 bad")
  message(FATAL_ERROR "clean scrub reported damage:\n${LAST_OUT}")
endif()
run_cli(0 verify --dir ${WORK}/art)
# Damage level 0's payload bytes in place (same file size, different
# content; CMake script mode cannot patch single bits, the unit tests cover
# every per-byte flip) and expect the scrub to name the victims.
file(SIZE ${WORK}/art/level_0.bin level0_size)
string(REPEAT "x" ${level0_size} garbage)
file(WRITE ${WORK}/art/level_0.bin "${garbage}")
run_cli(3 verify --dir ${WORK}/art)
if(NOT LAST_OUT MATCHES "BAD segment level=")
  message(FATAL_ERROR "scrub did not name the damaged segment:\n${LAST_OUT}")
endif()

# The fault-tolerant retrieve still succeeds on the damaged artifact and
# reports the degradation; the plain retrieve refuses it.
run_cli(2 retrieve --dir ${WORK}/art --rel-error 1e-3 --out ${WORK}/d.f64)
run_cli(0 retrieve --dir ${WORK}/art --rel-error 1e-3 --tolerant
        --out ${WORK}/d.f64)
if(NOT LAST_OUT MATCHES "DEGRADED")
  message(FATAL_ERROR "tolerant retrieve did not report degradation:\n"
                      "${LAST_OUT}")
endif()

# Replicated-cluster scrub drill: with R=2 the wiped node is repaired back
# to full replication (exit 0); with R=1 the wiped node held the only copy
# of some segments, and the documented exit code 3 reports the loss.
run_cli(0 scrub --cluster --shards 4 --replicas 2 --dims 9,9,9 --planes 16)
if(NOT LAST_OUT MATCHES "repaired")
  message(FATAL_ERROR "cluster scrub did not report repairs:\n${LAST_OUT}")
endif()
run_cli(3 scrub --cluster --shards 4 --replicas 1 --dims 9,9,9 --planes 16)
if(NOT LAST_OUT MATCHES "LOST")
  message(FATAL_ERROR "R=1 cluster scrub did not report loss:\n${LAST_OUT}")
endif()

# Cluster chaos bench (default 17^3 corpus, 96 requests): kill a node
# halfway through the request stream. Reads fail over to surviving
# replicas (exit 0: nothing failed, nothing incorrect, failovers actually
# happened) and the JSON report carries the tail-latency evidence.
run_cli(0 serve-bench --shards 4 --replicas 2 --kill-node-at 50%
        --json ${WORK}/bench_cluster.json)
if(NOT EXISTS ${WORK}/bench_cluster.json)
  message(FATAL_ERROR "cluster bench did not write its JSON report")
endif()
file(READ ${WORK}/bench_cluster.json cluster_json)
if(NOT cluster_json MATCHES "\"failovers_total\":")
  message(FATAL_ERROR "cluster bench JSON lacks failovers_total:\n"
                      "${cluster_json}")
endif()
if(cluster_json MATCHES "\"failovers_total\":0[,}]")
  message(FATAL_ERROR "node kill produced no failovers:\n${cluster_json}")
endif()
if(NOT cluster_json MATCHES "\"latency_p999_ms\":")
  message(FATAL_ERROR "cluster bench JSON lacks latency_p999_ms:\n"
                      "${cluster_json}")
endif()
if(NOT cluster_json MATCHES "\"incorrect\":0")
  message(FATAL_ERROR "cluster bench reported incorrect reconstructions:\n"
                      "${cluster_json}")
endif()
if(NOT cluster_json MATCHES "\"replicas_lost\":0")
  message(FATAL_ERROR "R=2 cluster bench lost data:\n${cluster_json}")
endif()

# An unreplicated cluster degrades gracefully instead of crashing:
# refinements that lose segments degrade honestly in their sessions, exit
# stays 0.
run_cli(0 serve-bench --shards 4 --replicas 1 --kill-node-at 50%
        --requests 48 --clients 4)

# Request-scoped tracing through the chaos bench: --trace-requests retains
# per-request lanes (the explicit slow threshold plus head sampling
# guarantee a fast run still keeps some), the end-of-run output carries the
# SLO burn report, and trace-report ranks the retained requests.
run_cli(0 serve-bench --shards 4 --replicas 2 --kill-node-at 50%
        --requests 48 --clients 4
        --trace-requests ${WORK}/lanes.json --slow-ms 0.5 --head-sample 8)
if(NOT LAST_OUT MATCHES "latency:")
  message(FATAL_ERROR "chaos bench printed no SLO burn report:\n${LAST_OUT}")
endif()
if(NOT LAST_OUT MATCHES "lanes:")
  message(FATAL_ERROR "chaos bench reported no retained lanes:\n${LAST_OUT}")
endif()
if(NOT EXISTS ${WORK}/lanes.json)
  message(FATAL_ERROR "--trace-requests did not write ${WORK}/lanes.json")
endif()
run_cli(0 trace-report --input ${WORK}/lanes.json --top 5)
if(NOT LAST_OUT MATCHES "retained requests in")
  message(FATAL_ERROR "trace-report missing its header:\n${LAST_OUT}")
endif()
if(NOT LAST_OUT MATCHES "per-stage totals across retained requests")
  message(FATAL_ERROR "trace-report missing stage attribution:\n${LAST_OUT}")
endif()

# trace-report exit codes: missing --input is a usage error (1); an
# unreadable lanes file is a runtime error (2). A bare --trace-requests
# flag (no path) is a usage error before any bench work starts.
run_cli(1 trace-report)
run_cli(2 trace-report --input ${WORK}/no_such_lanes.json)
run_cli(1 serve-bench --trace-requests)

# Error-control audit: the baseline-only quick run prints the per-model
# table, and --prom leaves a Prometheus exposition behind.
run_cli(0 audit --app warpx --field J_x --dims 9,9,9 --timesteps 2
        --planes 16 --bounds-per-decade 1 --prom ${WORK}/audit.prom)
if(NOT LAST_OUT MATCHES "baseline")
  message(FATAL_ERROR "audit table missing the baseline row:\n${LAST_OUT}")
endif()
if(NOT EXISTS ${WORK}/audit.prom)
  message(FATAL_ERROR "audit --prom did not write ${WORK}/audit.prom")
endif()
file(READ ${WORK}/audit.prom prom_text)
if(NOT prom_text MATCHES "# TYPE mgardp_audit_records_total counter")
  message(FATAL_ERROR "prom exposition malformed:\n${prom_text}")
endif()

# Model registry admin: train a small D-MGARD blob, publish it into a fresh
# registry, list it, publish a second version and pin back and forth. The
# registry survives the round trips on disk.
run_cli(0 train --model dmgard --app warpx --field J_x --dims 17,17,17
        --timesteps 4 --epochs 3 --bounds-per-decade 1
        --out ${WORK}/dmgard.bin)
run_cli(0 models publish --dir ${WORK}/reg --model dmgard
        --blob ${WORK}/dmgard.bin --serve)
run_cli(0 models list --dir ${WORK}/reg)
if(NOT LAST_OUT MATCHES "dmgard +1 +dmgard +serving")
  message(FATAL_ERROR "models list missing serving v1:\n${LAST_OUT}")
endif()
run_cli(0 models publish --dir ${WORK}/reg --model dmgard
        --blob ${WORK}/dmgard.bin)
run_cli(0 models pin --dir ${WORK}/reg --model dmgard --version 2)
run_cli(0 models rollback --dir ${WORK}/reg --model dmgard)
run_cli(0 models list --dir ${WORK}/reg)
if(NOT LAST_OUT MATCHES "dmgard +1 +dmgard +serving")
  message(FATAL_ERROR "rollback did not restore v1 as serving:\n${LAST_OUT}")
endif()

# Registry error paths: usage errors exit 1, runtime errors 2, and a
# corrupted stored blob is detected by its checksum and exits 3.
run_cli(1 models list)                                        # no --dir
run_cli(1 models)                                             # no action
run_cli(1 models frobnicate --dir ${WORK}/reg)                # bad action
run_cli(2 models pin --dir ${WORK}/reg --model dmgard --version 99)
run_cli(2 models list --dir ${WORK}/no_such_reg)
file(SIZE ${WORK}/reg/dmgard_v1.bin blob_size)
string(REPEAT "x" ${blob_size} blob_garbage)
file(WRITE ${WORK}/reg/dmgard_v1.bin "${blob_garbage}")
run_cli(3 models list --dir ${WORK}/reg)

# Error paths return the documented exit codes.
run_cli(1 retrieve --dir ${WORK}/art2 --out ${WORK}/x.f64)    # no bound
run_cli(1 refactor --out ${WORK}/nope)                        # missing args
run_cli(2 info --dir ${WORK}/not_an_artifact)                 # runtime error
run_cli(1 frobnicate)                                         # unknown cmd

file(REMOVE_RECURSE "${WORK}")
message(STATUS "cli smoke test passed")
