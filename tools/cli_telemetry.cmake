# Runs the Monte Carlo plan PLAN the way a fleet of shard hosts would,
# with every piece of telemetry on, and checks what each piece delivers:
#
#  - a single-process reference run;
#  - the static act, copied into an empty directory and run under
#    `env -i`, gives the reference bytes (needs no loader and no shared
#    library; skipped unless STATIC is true, since sanitizer builds
#    link dynamically);
#  - 3 shards at 1, 2 and 3 threads with ACT_METRICS=1, ACT_TRACE and a
#    heartbeat every chunk; `act status .` shows 3 rows in state done;
#  - `act merge --metrics-out --metrics-prom` gives the reference bytes
#    (telemetry in the partials must not move a result byte);
#  - a merge into a FIFO gives the reference bytes, and a write that
#    fails into a FIFO exits 1 without removing it (skipped without
#    mkfifo and cp);
#  - `act trace-merge` of the shard traces, a traced
#    `fig08_mobile_design_space --metrics` run, and a fig08 run whose
#    trace cannot be written (one warning; needs /dev/full);
#  - the metrics and trace validators (the MetricsFileValidation and
#    TraceFileValidation gtests) accept the merged metrics, fig08's
#    trace and the merged trace. A validator skips itself when its
#    file variable is unset, so a skipped or missing test fails here.
#
# The artifacts stay in WORK_DIR: mc_metrics.json, mc_metrics.prom,
# mc_merged.trace.json, mc_part*.heartbeat.json and trace.json.
#
#   cmake -DACT=<act binary> -DPLAN=<sweep plan> -DSTATIC=<bool> \
#         -DFIG08=<fig08_mobile_design_space binary> \
#         -DMETRICS_VALIDATOR=<util_metrics_merge_test binary> \
#         -DTRACE_VALIDATOR=<util_trace_test binary> \
#         -DWORK_DIR=<dir> -P cli_telemetry.cmake

unset(ENV{ACT_TRACE})
unset(ENV{ACT_METRICS})
set(ENV{ACT_HEARTBEAT} 1)
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Run a command in WORK_DIR; fatal unless it exits 0. Sets `stdout`.
function(run what)
    execute_process(COMMAND ${ARGN}
        WORKING_DIRECTORY "${WORK_DIR}"
        RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT status STREQUAL "0")
        message(FATAL_ERROR "${what} exited ${status}:\n${out}${err}")
    endif()
    set(stdout "${out}" PARENT_SCOPE)
endfunction()

function(expect_same what candidate)
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
        "${WORK_DIR}/mc_full.json" "${WORK_DIR}/${candidate}"
        RESULT_VARIABLE differs)
    if(differs)
        message(FATAL_ERROR "${what}: ${candidate} differs from the "
                            "single-process result")
    endif()
    message(STATUS "${what}: same bytes as the single-process result")
endfunction()

# Run a validator gtest command with --gtest_filter=`filter`; it must
# pass at least one test and skip none.
function(validate what filter)
    run("${what}" ${ARGN} --gtest_filter=${filter})
    if(stdout MATCHES "SKIPPED" OR
       NOT stdout MATCHES "\\[  PASSED  \\] [1-9][0-9]* test")
        message(FATAL_ERROR "${what}: no validator test ran:\n${stdout}")
    endif()
    message(STATUS "${what}: valid")
endfunction()

run("reference" "${ACT}" sweep --plan "${PLAN}" --out mc_full.json)

if(STATIC)
    file(MAKE_DIRECTORY "${WORK_DIR}/shipped")
    file(COPY "${ACT}" DESTINATION "${WORK_DIR}/shipped")
    get_filename_component(act_name "${ACT}" NAME)
    execute_process(COMMAND env -i ./${act_name} sweep --plan "${PLAN}"
            --out ../mc_shipped.json
        WORKING_DIRECTORY "${WORK_DIR}/shipped"
        RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT status STREQUAL "0")
        message(FATAL_ERROR "act under env -i exited ${status}:\n${err}")
    endif()
    expect_same("static act under env -i" mc_shipped.json)
endif()

set(parts)
foreach(index 0 1 2)
    math(EXPR threads "${index} + 1")
    run("shard ${index}" ${CMAKE_COMMAND} -E env ACT_THREADS=${threads}
        ACT_METRICS=1 ACT_TRACE=mc_shard${index}.trace.json
        ACT_HEARTBEAT_SECS=0
        "${ACT}" sweep --plan "${PLAN}" --shards 3 --shard-index ${index}
        --out mc_part${index}.json)
    list(APPEND parts mc_part${index}.json)
endforeach()

run("act status" "${ACT}" status .)
string(REGEX MATCHALL "\\| +done +\\|" done_rows "${stdout}")
list(LENGTH done_rows done_count)
if(NOT done_count EQUAL 3)
    message(FATAL_ERROR "act status: expected 3 shards done, "
                        "got ${done_count}:\n${stdout}")
endif()
message(STATUS "act status: 3 shards done")

run("merge" "${ACT}" merge ${parts} --out mc_merged.json
    --metrics-out mc_metrics.json --metrics-prom mc_metrics.prom)
expect_same("merge with metrics" mc_merged.json)
file(READ "${WORK_DIR}/mc_metrics.prom" prom)
if(NOT prom MATCHES "\nact_sweep_items [1-9]")
    message(FATAL_ERROR "mc_metrics.prom has no act_sweep_items:\n${prom}")
endif()
# Each shard observes its worker utilization once, for its one timed
# runChunks call; the merge sums the three shards bucket-wise.
set(utilization act_parallel_worker_utilization_pct)
if(NOT prom MATCHES "# TYPE ${utilization} histogram\n" OR
   NOT prom MATCHES "\n${utilization}_bucket{le=\"\\+Inf\"} 3\n" OR
   NOT prom MATCHES "\n${utilization}_count 3\n")
    message(FATAL_ERROR "mc_metrics.prom: expected ${utilization} as a "
                        "histogram of 3 observations:\n${prom}")
endif()

# A FIFO is read by cp, the first command of the pipeline, concurrently
# with act: cp opens the FIFO once and writes nothing to act's stdin or
# to the shared stderr, and act's stdout has no reader to lose. A
# writer that never opens the FIFO times out.
find_program(MKFIFO mkfifo)
find_program(CP cp)
if(MKFIFO AND CP)
    run("mkfifo" "${MKFIFO}" mc.fifo)
    execute_process(
        COMMAND "${CP}" mc.fifo mc_piped.json
        COMMAND "${ACT}" merge ${parts} --out mc.fifo
        WORKING_DIRECTORY "${WORK_DIR}" TIMEOUT 60
        RESULTS_VARIABLE statuses OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT statuses STREQUAL "0;0")
        message(FATAL_ERROR "merge into a FIFO exited ${statuses}:\n${err}")
    endif()
    expect_same("merge into a FIFO" mc_piped.json)

    # A result that the JSON writer rejects partway is removed only when
    # it is a regular file; the FIFO must survive the failure.
    file(WRITE "${WORK_DIR}/chiplet_inf.json"
         "{\"domain\": \"chiplet\", \"config\": "
         "{\"logic_area_mm2\": 1e300, \"max_chiplets\": 2}}\n")
    execute_process(
        COMMAND "${CP}" mc.fifo fifo_drained.json
        COMMAND "${ACT}" sweep --plan chiplet_inf.json --out mc.fifo
        WORKING_DIRECTORY "${WORK_DIR}" TIMEOUT 60
        RESULTS_VARIABLE statuses OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT statuses STREQUAL "0;1" OR
       NOT err MATCHES "(^|\n)fatal: cannot write JSON file 'mc\\.fifo'")
        message(FATAL_ERROR "failed write into a FIFO: expected exit 1 and "
                            "'fatal: cannot write JSON file', got "
                            "${statuses}:\n${err}")
    endif()
    if(NOT EXISTS "${WORK_DIR}/mc.fifo")
        message(FATAL_ERROR "a failed write removed the FIFO")
    endif()
    message(STATUS "failed write into a FIFO: exit 1, FIFO kept")
else()
    message(STATUS "no mkfifo or cp: FIFO cases skipped")
endif()

run("trace-merge" "${ACT}" trace-merge mc_merged.trace.json
    mc_shard0.trace.json mc_shard1.trace.json mc_shard2.trace.json)

run("traced fig08" ${CMAKE_COMMAND} -E env ACT_TRACE=trace.json
    "${FIG08}" --metrics)

# A figure writes its trace once, at exit, so a trace it cannot write
# warns once.
if(EXISTS /dev/full)
    execute_process(COMMAND "${FIG08}" --trace /dev/full
        WORKING_DIRECTORY "${WORK_DIR}"
        RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT status STREQUAL "0" OR NOT err STREQUAL
       "warn: cannot write trace file '/dev/full'\n")
        message(FATAL_ERROR "fig08 --trace /dev/full: expected exit 0 and "
                            "one warning line, got exit ${status}:\n${err}")
    endif()
    message(STATUS "fig08 --trace /dev/full: one warning")
endif()

validate("merged metrics" "MetricsFileValidation.*"
    ${CMAKE_COMMAND} -E env
    "ACT_METRICS_VALIDATE=${WORK_DIR}/mc_metrics.json"
    "${METRICS_VALIDATOR}")
validate("fig08 trace and merged trace" "TraceFileValidation.*"
    ${CMAKE_COMMAND} -E env
    "ACT_TRACE_VALIDATE=${WORK_DIR}/trace.json"
    "ACT_TRACE_VALIDATE_MERGED=${WORK_DIR}/mc_merged.trace.json"
    "${TRACE_VALIDATOR}")
