# Runs the bench binary NAME (table and --csv) and byte-compares its
# output against the checked-in goldens ${NAME}.txt and ${NAME}_csv.txt.
# Usage: cmake -DNAME=<binary> -DBENCH_BIN=<path> -DGOLDEN_DIR=<dir>
#              -DWORK_DIR=<dir> -P compare_golden.cmake
foreach(var NAME BENCH_BIN GOLDEN_DIR WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "missing -D${var}")
    endif()
endforeach()

foreach(mode table csv)
    if(mode STREQUAL "csv")
        set(args --csv)
        set(suffix _csv)
    else()
        set(args "")
        set(suffix "")
    endif()
    execute_process(
        COMMAND ${BENCH_BIN} ${args}
        OUTPUT_FILE ${WORK_DIR}/${NAME}${suffix}.out
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${NAME} ${args} exited with ${rc}")
    endif()
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/${NAME}${suffix}.out
            ${GOLDEN_DIR}/${NAME}${suffix}.txt
        RESULT_VARIABLE diff)
    if(NOT diff EQUAL 0)
        message(FATAL_ERROR "${NAME} ${mode} output differs from golden")
    endif()
endforeach()
