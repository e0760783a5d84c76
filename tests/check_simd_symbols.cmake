# Fails when an ISA-specific SIMD object (kernels_avx2 / kernels_avx512)
# defines any global symbol besides its kernel table. Any other one is a
# shared inline function compiled for that ISA: the linker keeps one copy of
# such a weak symbol for the whole program, and if it keeps this one, code
# running on the portable baseline ISA executes AVX2/AVX-512 instructions.
#
#   cmake -DNM=<nm> "-DOBJECTS=<object;...>" -P check_simd_symbols.cmake
#
# OBJECTS may list every object of the library; only the two SIMD ones are
# checked, and both must be present.
set(checked 0)
set(bad "")
foreach(obj IN LISTS OBJECTS)
  get_filename_component(name "${obj}" NAME)
  if(NOT name MATCHES "^kernels_avx(2|512)\\.cpp\\.o")
    continue()
  endif()
  math(EXPR checked "${checked} + 1")
  execute_process(COMMAND "${NM}" -g -C --defined-only "${obj}"
                  OUTPUT_VARIABLE out RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${NM} failed on ${obj}")
  endif()
  string(REPLACE "\n" ";" lines "${out}")
  foreach(line IN LISTS lines)
    if(NOT line MATCHES "^[0-9a-fA-F]* +[A-Za-z] +(.+)$")
      continue()
    endif()
    set(sym "${CMAKE_MATCH_1}")
    # The table itself (plus the ODR marker ASan attaches to it), and the
    # personality-routine data word some instrumented builds emit: neither
    # holds code.
    if(sym MATCHES "kAvx(2|512)Table" OR sym STREQUAL "DW.ref.__gxx_personality_v0")
      continue()
    endif()
    list(APPEND bad "${name}: ${sym}")
  endforeach()
endforeach()

if(NOT checked EQUAL 2)
  message(FATAL_ERROR "expected the two SIMD objects, found ${checked}")
endif()
if(bad)
  list(JOIN bad "\n  " text)
  message(FATAL_ERROR "SIMD objects define symbols besides their tables:\n  ${text}")
endif()
message(STATUS "SIMD objects define only kAvx2Table / kAvx512Table")
