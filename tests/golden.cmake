# Exact-golden check, run as a ctest via `cmake -P` (see
# tests/CMakeLists.txt): re-runs a bench binary with --json-out and
# requires its JSON to be byte-identical to the committed baseline.
# The simulator is deterministic, so any difference is a behaviour
# change; refresh the baseline only for an intended one. Expects
# -DBENCH=, -DBASELINE=, -DOUT=; ENV_KNOBS is a comma-separated list
# of environment variables the bench reads, cleared so the defaults
# are compared.

foreach(var BENCH BASELINE OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "golden: missing -D${var}=")
    endif()
endforeach()
string(REPLACE "," ";" env_knobs "${ENV_KNOBS}")
foreach(knob IN LISTS env_knobs)
    unset(ENV{${knob}})
endforeach()

get_filename_component(out_dir "${OUT}" DIRECTORY)
file(MAKE_DIRECTORY "${out_dir}")
file(REMOVE "${OUT}")
execute_process(
    COMMAND "${BENCH}" --json-out "${OUT}"
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
