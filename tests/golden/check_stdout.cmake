# Byte-compares the stdout of every figure/table/ablation driver and of the
# deterministic examples with tests/golden/<name>.stdout. Drivers run at
# --jobs 1 and --jobs 4 (their output must not depend on the worker
# count); examples run without arguments. A mismatch leaves the actual
# output next to the build's test directory as <name>[.jN].actual.
#
#   cmake -DGOLDEN_DIR=<dir> -DOUT_DIR=<dir> -DDRIVERS=<path,...>
#         -DEXAMPLES=<path,...> -P check_stdout.cmake
foreach(var GOLDEN_DIR OUT_DIR DRIVERS EXAMPLES)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_stdout.cmake: -D${var}=... is required")
  endif()
endforeach()
string(REPLACE "," ";" drivers "${DRIVERS}")
string(REPLACE "," ";" examples "${EXAMPLES}")

set(failed "")

# run_one(<program> <golden name> <actual file suffix> [args...])
function(run_one program name suffix)
  set(actual "${OUT_DIR}/${name}${suffix}.actual")
  execute_process(COMMAND "${program}" ${ARGN}
                  WORKING_DIRECTORY "${OUT_DIR}"
                  OUTPUT_FILE "${actual}"
                  ERROR_VARIABLE stderr
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(SEND_ERROR "${name} ${ARGN}: exit ${rc}\n${stderr}")
    set(failed "${failed} ${name}${suffix}" PARENT_SCOPE)
    return()
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${GOLDEN_DIR}/${name}.stdout" "${actual}"
                  RESULT_VARIABLE differs)
  if(differs)
    message(SEND_ERROR "${name} ${ARGN}: stdout differs from ${GOLDEN_DIR}/${name}.stdout "
                       "(actual output: ${actual})")
    set(failed "${failed} ${name}${suffix}" PARENT_SCOPE)
  else()
    file(REMOVE "${actual}")
  endif()
endfunction()

foreach(program ${drivers})
  get_filename_component(name "${program}" NAME_WE)
  foreach(jobs 1 4)
    run_one("${program}" "${name}" ".j${jobs}" --jobs ${jobs})
  endforeach()
endforeach()
foreach(program ${examples})
  get_filename_component(name "${program}" NAME_WE)
  run_one("${program}" "${name}" "")
endforeach()

if(failed)
  message(FATAL_ERROR "golden stdout mismatch:${failed}")
endif()
