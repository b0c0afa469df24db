# Runs the program BENCH_BIN and byte-compares its output against the
# checked-in goldens in GOLDEN_DIR. Without ARGS it runs the table mode
# and the --csv mode, compared with ${NAME}.txt and ${NAME}_csv.txt;
# with ARGS (a list, empty for a bare run) it runs `BENCH_BIN ARGS`,
# compared with ${NAME}.txt.
# Every mode runs at ACT_THREADS=1 ACT_SIMD=scalar and again at
# ACT_THREADS=4 ACT_SIMD=auto, and both runs must match the golden, so
# the output is also thread-count and SIMD-level invariant.
# Usage: cmake -DNAME=<name> -DBENCH_BIN=<path> -DGOLDEN_DIR=<dir>
#              -DWORK_DIR=<dir> [-DARGS=[<arg;...>]] -P compare_golden.cmake
foreach(var NAME BENCH_BIN GOLDEN_DIR WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "missing -D${var}")
    endif()
endforeach()

if(DEFINED ARGS)
    set(modes command)
else()
    set(modes table csv)
endif()

foreach(mode IN LISTS modes)
    if(mode STREQUAL "command")
        set(args ${ARGS})
        set(suffix "")
    elseif(mode STREQUAL "csv")
        set(args --csv)
        set(suffix _csv)
    else()
        set(args "")
        set(suffix "")
    endif()
    foreach(pass 1:scalar 4:auto)
        string(REPLACE ":" ";" pass_fields "${pass}")
        list(GET pass_fields 0 threads)
        list(GET pass_fields 1 simd)
        set(ENV{ACT_THREADS} ${threads})
        set(ENV{ACT_SIMD} ${simd})
        set(out ${WORK_DIR}/${NAME}${suffix}_${threads}_${simd}.out)
        execute_process(
            COMMAND ${BENCH_BIN} ${args}
            OUTPUT_FILE ${out}
            RESULT_VARIABLE rc)
        if(NOT rc EQUAL 0)
            message(FATAL_ERROR "${NAME} ${args} exited with ${rc} at "
                                "ACT_THREADS=${threads} ACT_SIMD=${simd}")
        endif()
        execute_process(
            COMMAND ${CMAKE_COMMAND} -E compare_files
                ${out} ${GOLDEN_DIR}/${NAME}${suffix}.txt
            RESULT_VARIABLE diff)
        if(NOT diff EQUAL 0)
            message(FATAL_ERROR "${NAME} ${mode} output at ACT_THREADS="
                                "${threads} ACT_SIMD=${simd} differs from "
                                "golden")
        endif()
    endforeach()
endforeach()
