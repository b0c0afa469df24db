# Runs `act sweep` on a multi-chunk fleet plan whose hardware lifetime
# is shorter than most jobs, so every chunk fails on its worker thread
# at about the same time. Each of 20 runs at ACT_THREADS=4 must exit 1
# with exactly one stderr line, `fatal: execution time ... exceeds
# hardware lifetime ...` -- concurrent fatal() calls must neither
# interleave their output nor print more than one diagnostic.
#
#   cmake -DACT=<act binary> -DWORK_DIR=<dir> -P cli_concurrent_fatal.cmake

set(ENV{ACT_THREADS} 4)
set(ENV{ACT_HEARTBEAT} 0)
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
file(WRITE "${WORK_DIR}/plan.json" [=[
{"domain": "fleet", "items": 4096, "grain": 256, "seed": 42,
 "config": {"lifetime_years": [0.0001],
            "policies": ["uniform", "greedy", "deadline", "migrate"],
            "regions": [{"name": "tw-solar", "profile": "solar",
                         "region": "Taiwan", "share": 0.25},
                        {"name": "is-flat", "profile": "flat",
                         "region": "Iceland"}],
            "jobs": {"horizon_hours": 48, "median_duration_hours": 2,
                     "max_duration_hours": 48}}}
]=])

foreach(run RANGE 1 20)
    execute_process(COMMAND "${ACT}" sweep --plan plan.json --out out.json
        WORKING_DIRECTORY "${WORK_DIR}"
        RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE stderr)
    if(NOT status STREQUAL "1" OR NOT stderr MATCHES
       "^fatal: execution time [^\n]* exceeds hardware lifetime [^\n]*\n$")
        message(FATAL_ERROR "run ${run}: expected exit 1 and one "
                            "'fatal: execution time ... exceeds hardware "
                            "lifetime' line, got exit ${status}:\n${stderr}")
    endif()
endforeach()
message(STATUS "20 runs, one fatal line each: ${stderr}")
