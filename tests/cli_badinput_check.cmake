# Bad-input gate for the CLI tools: every malformed key=value pair
# must be rejected up front with a non-zero exit and a diagnostic
# naming the offending input — never a silent wrap (the historical
# failure: strtoull skips leading whitespace and accepts a sign, so
# "measure_us= -1" wrapped to ~1.8e19 µs and panicked deep inside the
# simulation instead of failing at the command line).
#
# Invoked by ctest as:
#   cmake -DKMU_SIM=<path> -DKMU_TRACE=<path> -DKMU_FAULTSTORM=<path>
#         -DABL_OUTAGE=<path> -P cli_badinput_check.cmake

foreach(tool KMU_SIM KMU_TRACE KMU_FAULTSTORM ABL_OUTAGE)
    if(NOT ${tool})
        message(FATAL_ERROR "pass -D${tool}=<path>")
    endif()
endforeach()

# reject(<diag-fragment> <tool> [args...]): the run must exit
# non-zero and mention the fragment on stderr.
function(reject fragment)
    execute_process(
        COMMAND ${ARGN}
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(rc EQUAL 0)
        message(FATAL_ERROR
            "accepted bad input: ${ARGN} (expected failure)")
    endif()
    if(NOT err MATCHES "${fragment}")
        message(FATAL_ERROR
            "bad-input diagnostic for '${ARGN}' does not name the "
            "offending input '${fragment}': ${err}")
    endif()
endfunction()

# kmu_sim: trailing garbage, leading whitespace (the wrap bug),
# unknown keys, non-key=value arguments, bad enum values.
reject("lambda=0.5x"      ${KMU_SIM} "lambda=0.5x")
reject("lambda= -1"       ${KMU_SIM} "lambda= -1")
reject("measure_us= -1"   ${KMU_SIM} "measure_us= -1")
reject("measure_us=10us"  ${KMU_SIM} "measure_us=10us")
reject("no_such_key"      ${KMU_SIM} "no_such_key=1")
reject("noequals"         ${KMU_SIM} "noequals")
reject("mechanism=bogus"  ${KMU_SIM} "mechanism=bogus")

# kmu_faultstorm: bad rate lists and whitespace-wrapped integers.
reject("rates=0.1,x"      ${KMU_FAULTSTORM} "rates=0.1,x")
reject("seed= -1"         ${KMU_FAULTSTORM} "seed= -1")
reject("ops=25oo"         ${KMU_FAULTSTORM} "ops=25oo")

# kmu_trace: non-key=value junk after the trace path and missing
# files must both fail loudly.
reject("noequals"         ${KMU_TRACE} "in.kmt" "noequals")
reject("no-such-trace"    ${KMU_TRACE} "no-such-trace.kmt")

# abl_outage: the bench formerly used bare strtoull for these.
reject("ops=25oo"         ${ABL_OUTAGE} "ops=25oo")
reject("seed= -1"         ${ABL_OUTAGE} "seed= -1")
reject("fibers=0x"        ${ABL_OUTAGE} "fibers=0x")
reject("no_such_key"      ${ABL_OUTAGE} "no_such_key=1")

# Positive control: a well-formed invocation of the strictest parser
# still succeeds (guards against over-rejection).
execute_process(
    COMMAND ${KMU_SIM} mechanism=ondemand latency_us=1 measure_us=20
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "well-formed kmu_sim invocation rejected (rc=${rc}): ${err}")
endif()

# Shard aliasing: under the default cacheline interleave every
# batch-1 prefetch read lands on shard 0. The run must still succeed
# and name the fix on stderr; page interleave spreads the reads and
# must not warn.
execute_process(
    COMMAND ${KMU_SIM} mechanism=prefetch cores=8 threads=8 shards=4
            measure_us=20
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "aliased-shard kmu_sim run failed (rc=${rc}): ${err}")
endif()
if(NOT err MATCHES "interleave=page")
    message(FATAL_ERROR
        "aliased-shard kmu_sim run printed no warning: '${err}'")
endif()
execute_process(
    COMMAND ${KMU_SIM} mechanism=prefetch cores=8 threads=8 shards=4
            measure_us=20 interleave=page
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "page-interleaved kmu_sim run failed (rc=${rc}): ${err}")
endif()
if(err MATCHES "warning")
    message(FATAL_ERROR
        "page-interleaved kmu_sim run warned: '${err}'")
endif()

message(STATUS "cli bad-input gate passed")
