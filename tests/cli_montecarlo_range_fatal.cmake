# Runs `act sweep` on a cpa_montecarlo plan whose abatement range
# [0.5, 0.99] reaches below the model's characterized band, 20 times at
# ACT_THREADS=4. The range must be rejected when the plan is prepared,
# so every run exits 1 with the same single stderr line -- not with
# whichever out-of-range sample a worker thread happened to draw first.
#
#   cmake -DACT=<act binary> -DWORK_DIR=<dir> -P cli_montecarlo_range_fatal.cmake

set(ENV{ACT_THREADS} 4)
set(ENV{ACT_HEARTBEAT} 0)
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
file(WRITE "${WORK_DIR}/plan.json" [=[
{"domain": "cpa_montecarlo", "items": 200000,
 "config": {"node_nm": 7,
            "parameters": [{"name": "abatement",
                            "low": 0.5, "high": 0.99}]}}
]=])

set(expected "fatal: bad sweep plan 'plan.json': parameters[0]: 'low' must be a number in [0.9, 1] (got 0.5)\n")
foreach(run RANGE 1 20)
    execute_process(COMMAND "${ACT}" sweep --plan plan.json --out out.json
        WORKING_DIRECTORY "${WORK_DIR}"
        RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE stderr)
    if(NOT status STREQUAL "1" OR NOT stderr STREQUAL expected)
        message(FATAL_ERROR "run ${run}: expected exit 1 and\n"
                            "${expected}got exit ${status}:\n${stderr}")
    endif()
endforeach()
message(STATUS "20 runs, one identical fatal line each: ${stderr}")
