# Checks that every program in PROGRAMS is statically linked:
# `readelf -l` must list no INTERP program header, the request for a
# dynamic loader that a dynamically linked executable carries.
#
#   cmake -DREADELF=<readelf> "-DPROGRAMS=<program>;..." \
#         -P programs_static.cmake

list(LENGTH PROGRAMS count)
if(count EQUAL 0)
    message(FATAL_ERROR "no programs to check")
endif()

set(dynamic)
foreach(program IN LISTS PROGRAMS)
    execute_process(COMMAND "${READELF}" -l "${program}"
        RESULT_VARIABLE status OUTPUT_VARIABLE headers ERROR_VARIABLE error)
    if(NOT status EQUAL 0)
        message(FATAL_ERROR "${READELF} -l ${program} failed: ${error}")
    endif()
    if(headers MATCHES "[ \t]INTERP[ \t]")
        list(APPEND dynamic "${program}")
    endif()
endforeach()
if(dynamic)
    list(JOIN dynamic "\n  " listed)
    message(FATAL_ERROR "dynamically linked (INTERP header):\n  ${listed}")
endif()
message(STATUS "${count} programs, none needs the dynamic loader")
