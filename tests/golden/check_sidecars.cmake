# Pins the sidecar files of the sidecar-writing drivers by SHA-256 digest:
# every sidecar a run writes must hash to tests/golden/<name>.<flag>.sha256
# (one lowercase hex digest per file). Digests rather than copies because
# a flight or trace sidecar runs to hundreds of kilobytes. The sweep runs
# at --jobs 1 and --jobs 4 against the same digest, so this is also the
# sidecar half of the determinism contract. A mismatch keeps the sidecar
# as <name>[.jN].<flag>.json in OUT_DIR and prints the actual digest.
#
#   cmake -DGOLDEN_DIR=<dir> -DOUT_DIR=<dir> -DQUEUE_DEPTH=<path>
#         -DSTREAMING=<path> -P check_sidecars.cmake
foreach(var GOLDEN_DIR OUT_DIR QUEUE_DEPTH STREAMING)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_sidecars.cmake: -D${var}=... is required")
  endif()
endforeach()

set(failed "")

# run_one(<program> <actual file suffix> <sidecar flags> [args...])
function(run_one program suffix flags)
  get_filename_component(name "${program}" NAME_WE)
  set(cmd "${program}" ${ARGN})
  foreach(flag ${flags})
    list(APPEND cmd "--${flag}" "${OUT_DIR}/${name}${suffix}.${flag}.json")
  endforeach()
  execute_process(COMMAND ${cmd}
                  WORKING_DIRECTORY "${OUT_DIR}"
                  OUTPUT_QUIET
                  ERROR_VARIABLE stderr
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(SEND_ERROR "${name} ${ARGN}: exit ${rc}\n${stderr}")
    set(failed "${failed} ${name}${suffix}" PARENT_SCOPE)
    return()
  endif()
  foreach(flag ${flags})
    set(actual "${OUT_DIR}/${name}${suffix}.${flag}.json")
    file(SHA256 "${actual}" digest)
    file(STRINGS "${GOLDEN_DIR}/${name}.${flag}.sha256" expected LIMIT_COUNT 1)
    if(NOT digest STREQUAL expected)
      message(SEND_ERROR "${name} ${ARGN}: --${flag} sidecar sha256 ${digest} differs from "
                         "${GOLDEN_DIR}/${name}.${flag}.sha256 (actual sidecar: ${actual})")
      set(failed "${failed} ${name}${suffix}.${flag}" PARENT_SCOPE)
    else()
      file(REMOVE "${actual}")
    endif()
  endforeach()
endfunction()

foreach(jobs 1 4)
  run_one("${QUEUE_DEPTH}" ".j${jobs}" "flight;slo;metrics;trace" --jobs ${jobs})
endforeach()
run_one("${STREAMING}" "" "flight;slo")

if(failed)
  message(FATAL_ERROR "golden sidecar mismatch:${failed}")
endif()
