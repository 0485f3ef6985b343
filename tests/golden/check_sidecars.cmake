# Runs the sidecar-writing drivers with their sidecar flags and checks two
# things:
#   - stdout: a run with sidecars prints exactly tests/golden/<name>.stdout,
#     the output of the plain run, so observing never changes the result.
#     A mismatch keeps the output as <name>[.jN].sidecars.actual in OUT_DIR.
#   - digests: every pinned sidecar must hash to
#     tests/golden/<name>.<flag>.sha256 (one lowercase hex digest per file).
#     Digests rather than copies because a flight or trace sidecar runs to
#     hundreds of kilobytes. A mismatch keeps the sidecar as
#     <name>[.jN].<flag>.json in OUT_DIR and prints the actual digest.
# The sweeps run at --jobs 1 and --jobs 4 against the same goldens, so this
# is also the sidecar half of the determinism contract.
#
#   cmake -DGOLDEN_DIR=<dir> -DOUT_DIR=<dir> -DQUEUE_DEPTH=<path>
#         -DSTREAMING=<path> -DCITY_SCALE=<path> -P check_sidecars.cmake
foreach(var GOLDEN_DIR OUT_DIR QUEUE_DEPTH STREAMING CITY_SCALE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_sidecars.cmake: -D${var}=... is required")
  endif()
endforeach()

set(failed "")

# run_one(<program> <actual file suffix> <sidecar flags> <pinned flags> [args...])
function(run_one program suffix flags pinned)
  get_filename_component(name "${program}" NAME_WE)
  set(cmd "${program}" ${ARGN})
  foreach(flag ${flags})
    list(APPEND cmd "--${flag}" "${OUT_DIR}/${name}${suffix}.${flag}.json")
  endforeach()
  set(stdout "${OUT_DIR}/${name}${suffix}.sidecars.actual")
  execute_process(COMMAND ${cmd}
                  WORKING_DIRECTORY "${OUT_DIR}"
                  OUTPUT_FILE "${stdout}"
                  ERROR_VARIABLE stderr
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(SEND_ERROR "${name} ${ARGN}: exit ${rc}\n${stderr}")
    set(failed "${failed} ${name}${suffix}" PARENT_SCOPE)
    return()
  endif()
  set(bad "")
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${GOLDEN_DIR}/${name}.stdout" "${stdout}"
                  RESULT_VARIABLE differs)
  if(differs)
    message(SEND_ERROR "${name} ${ARGN} (sidecars ${flags}): stdout differs from "
                       "${GOLDEN_DIR}/${name}.stdout (actual output: ${stdout})")
    list(APPEND bad "${name}${suffix}.stdout")
  else()
    file(REMOVE "${stdout}")
  endif()
  foreach(flag ${flags})
    set(actual "${OUT_DIR}/${name}${suffix}.${flag}.json")
    list(FIND pinned "${flag}" at)
    if(at EQUAL -1)
      file(REMOVE "${actual}")
      continue()
    endif()
    file(SHA256 "${actual}" digest)
    file(STRINGS "${GOLDEN_DIR}/${name}.${flag}.sha256" expected LIMIT_COUNT 1)
    if(NOT digest STREQUAL expected)
      message(SEND_ERROR "${name} ${ARGN}: --${flag} sidecar sha256 ${digest} differs from "
                         "${GOLDEN_DIR}/${name}.${flag}.sha256 (actual sidecar: ${actual})")
      list(APPEND bad "${name}${suffix}.${flag}")
    else()
      file(REMOVE "${actual}")
    endif()
  endforeach()
  if(bad)
    string(JOIN " " bad ${bad})
    set(failed "${failed} ${bad}" PARENT_SCOPE)
  endif()
endfunction()

foreach(jobs 1 4)
  run_one("${QUEUE_DEPTH}" ".j${jobs}" "flight;slo;metrics;trace" "flight;slo;metrics;trace"
          --jobs ${jobs})
endforeach()
run_one("${STREAMING}" "" "flight;slo" "flight;slo")
# city_scale's sidecars are not pinned; its stdout is.
run_one("${CITY_SCALE}" ".j4" "metrics;slo" "" --jobs 4)

if(failed)
  message(FATAL_ERROR "golden sidecar mismatch:${failed}")
endif()
