# Runs every experiment binary in turn, even after one fails, then fails naming
# each binary that did, so one broken experiment cannot hide the reports of the
# others. The `bench` target invokes it as
#   cmake -DBENCH_BIN_DIR=<dir> -DBENCHES=<name,name,...> -DJSON_DIR=<dir>
#         -P run_benches.cmake
# Each binary writes BENCH_<name>.json into JSON_DIR; bench_crypto_micro is a
# google-benchmark binary and writes it through --benchmark_out.

get_filename_component(BENCH_BIN_DIR "${BENCH_BIN_DIR}" ABSOLUTE)
get_filename_component(JSON_DIR "${JSON_DIR}" ABSOLUTE)
string(REPLACE "," ";" benches "${BENCHES}")
set(failed "")
foreach(name IN LISTS benches)
  set(args "")
  if(name STREQUAL "bench_crypto_micro")
    set(args --benchmark_out=${JSON_DIR}/BENCH_crypto_micro.json
             --benchmark_out_format=json)
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env GLOBE_BENCH_JSON_DIR=${JSON_DIR}
            ${BENCH_BIN_DIR}/${name} ${args}
    WORKING_DIRECTORY ${JSON_DIR}
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    list(APPEND failed "${name} (${status})")
  endif()
endforeach()
if(failed)
  list(JOIN failed ", " failed)
  message(FATAL_ERROR "benchmarks failed: ${failed}")
endif()
