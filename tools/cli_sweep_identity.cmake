# Runs every example sweep plan single-process and as 3 shards plus
# `act merge`, at ACT_THREADS 1 and 4 and once more at ACT_SIMD=scalar,
# and checks that
#
#  - every single-process result has the SHA-256 recorded below,
#  - every merged result is byte-identical to it.
#
# Shard 1 of each split runs with full telemetry on (ACT_METRICS=1,
# ACT_TRACE, heartbeats every chunk) at a different thread count than
# its siblings, so a metrics section rides in one partial, shards of
# mixed thread counts merge, and telemetry must not move a result
# byte. The hashes pin every result byte: the partial format may
# change, the results may not.
#
# The fleet job stream draws its log-normal durations with the
# in-repo detLog/detCos/detExp (util/simd_kernels.h), so its result
# bits no longer depend on the host libm and are pinned like the
# others. The libm use left on the fleet path is setup-time: the
# sin/cos in data::IntensitySeries::solarDay, windDay and seasonal,
# which build the regions' intensity series. Those builders also feed
# ext_carbon_aware_scheduling, whose output is pinned by its ctest
# golden and by perfbench/figures.json, so they still call libm; a
# libm whose sin or cos rounds differently could move the fleet hash
# through them.
#
#   cmake -DACT=<act binary> -DCONFIGS=<examples/configs> \
#         -DWORK_DIR=<dir> -P cli_sweep_identity.cmake

set(expected_accel
    97a6d8f1b50ad3a0824206d3cb76953a3e9e9c58ba844f6dbff269cafe549842)
set(expected_chiplet
    b5c5061e894c06ae52ac8556d52b60c695252322ffaede104f6f9e5df90ce6c9)
set(expected_cpa_montecarlo
    a4f5c9244ca509fa2c84e5627c3dc029346712b896f09aad2e9279d7c8b83a1b)
set(expected_fleet
    57840d7d0fad6b8ff144be3aaf90eb2dbb26320df1641e4984de718612577322)
set(expected_mobile
    4f0fc634558cfae12e1bd5d6f1528576dff887348c7f8016b8189399dd5b3f5f)

set(ENV{ACT_HEARTBEAT} 0)
unset(ENV{ACT_TRACE})
unset(ENV{ACT_METRICS})
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Run act with `threads` workers at SIMD level `simd`; fatal unless it
# exits 0.
function(run_act what threads simd)
    set(ENV{ACT_THREADS} ${threads})
    set(ENV{ACT_SIMD} ${simd})
    execute_process(COMMAND "${ACT}" ${ARGN}
        WORKING_DIRECTORY "${WORK_DIR}"
        RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE stderr)
    if(NOT status STREQUAL "0")
        message(FATAL_ERROR "${what} exited ${status}:\n${stderr}")
    endif()
endfunction()

function(expect_same what reference candidate)
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
        "${WORK_DIR}/${reference}" "${WORK_DIR}/${candidate}"
        RESULT_VARIABLE differs)
    if(differs)
        message(FATAL_ERROR "${what}: ${candidate} differs from ${reference}")
    endif()
endfunction()

foreach(domain accel chiplet cpa_montecarlo fleet mobile)
    set(plan "${CONFIGS}/sweep_${domain}.json")
    # <threads>:<simd> per pass.
    foreach(pass 1:auto 4:auto 4:scalar)
        string(REPLACE ":" ";" pass_fields "${pass}")
        list(GET pass_fields 0 threads)
        list(GET pass_fields 1 simd)
        set(tag "${domain}_${threads}_${simd}")

        run_act("${tag} single" ${threads} ${simd}
                sweep --plan "${plan}" --out ${tag}_full.json)
        file(SHA256 "${WORK_DIR}/${tag}_full.json" digest)
        if(NOT digest STREQUAL expected_${domain})
            message(FATAL_ERROR "${tag}: single-process result has "
                    "SHA-256 ${digest}, expected ${expected_${domain}}")
        endif()

        set(parts)
        foreach(index 0 1 2)
            set(shard_threads ${threads})
            if(index EQUAL 1)
                set(ENV{ACT_METRICS} 1)
                set(ENV{ACT_TRACE} ${tag}_part1.trace.json)
                set(ENV{ACT_HEARTBEAT} 1)
                set(ENV{ACT_HEARTBEAT_SECS} 0)
                math(EXPR shard_threads "${threads} % 4 + 1")
            endif()
            run_act("${tag} shard ${index}" ${shard_threads} ${simd}
                    sweep --plan "${plan}" --shards 3 --shard-index ${index}
                    --out ${tag}_part${index}.json)
            unset(ENV{ACT_METRICS})
            unset(ENV{ACT_TRACE})
            set(ENV{ACT_HEARTBEAT} 0)
            list(APPEND parts ${tag}_part${index}.json)
        endforeach()
        file(READ "${WORK_DIR}/${tag}_part1.json" partial)
        if(NOT partial MATCHES "\"metrics\":")
            message(FATAL_ERROR "${tag}: shard 1 carries no metrics")
        endif()
        foreach(telemetry trace.json heartbeat.json)
            if(NOT EXISTS "${WORK_DIR}/${tag}_part1.${telemetry}")
                message(FATAL_ERROR "${tag}: shard 1 wrote no ${telemetry}")
            endif()
        endforeach()

        run_act("${tag} merge" ${threads} ${simd}
                merge ${parts} --out ${tag}_merged.json)
        expect_same("${tag}" ${tag}_full.json ${tag}_merged.json)
        message(STATUS "${tag}: single == merged (${digest})")
    endforeach()
endforeach()
