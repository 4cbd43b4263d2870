# Exact-golden check, run as a ctest via `cmake -P` (see
# tests/CMakeLists.txt): re-runs a binary as `BENCH ARGS... OUT_FLAG
# OUT` and requires the file it writes to be byte-identical to the
# committed baseline. The simulator is deterministic, so any
# difference is a behaviour change; refresh the baseline only for an
# intended one. Expects -DBENCH=, -DBASELINE=, -DOUT=. Optional:
# ARGS, a comma-separated argument list; OUT_FLAG, the flag naming
# the output file (default --json-out); ENV_KNOBS, a comma-separated
# list of environment variables the binary reads, cleared so the
# defaults are compared.

foreach(var BENCH BASELINE OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "golden: missing -D${var}=")
    endif()
endforeach()
if(NOT DEFINED OUT_FLAG)
    set(OUT_FLAG --json-out)
endif()
string(REPLACE "," ";" args "${ARGS}")
string(REPLACE "," ";" env_knobs "${ENV_KNOBS}")
foreach(knob IN LISTS env_knobs)
    unset(ENV{${knob}})
endforeach()

get_filename_component(out_dir "${OUT}" DIRECTORY)
file(MAKE_DIRECTORY "${out_dir}")
file(REMOVE "${OUT}")
execute_process(
    COMMAND "${BENCH}" ${args} ${OUT_FLAG} "${OUT}"
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "golden: ${BENCH} exited ${rc}")
endif()
execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${OUT}" "${BASELINE}"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "golden: ${OUT} differs from ${BASELINE}")
endif()
