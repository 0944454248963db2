# Sharding differential gate: the figure benches — all of which run
# the default shards=1 topology — must regenerate CSVs byte-identical
# to the artifacts committed under tests/artifacts/. Any drift means
# the multi-device topology layer leaked timing, stat-naming, or
# routing changes into the single-device model it is required to
# reproduce exactly. The sharding ablation (shards 1..8) is held to
# its committed CSVs the same way, pinning the multi-shard model.
#
# Invoked by ctest as:
#   cmake -DFIG02=<path> -DFIG07=<path> -DABL_SHARDING=<path>
#         -DARTIFACT_DIR=<dir> -DWORK_DIR=<dir>
#         -P sharding_differential_check.cmake

if(NOT FIG02 OR NOT FIG07 OR NOT ABL_SHARDING)
    message(FATAL_ERROR
        "pass -DFIG02=/-DFIG07=/-DABL_SHARDING=<paths to benches>")
endif()
if(NOT ARTIFACT_DIR)
    message(FATAL_ERROR "pass -DARTIFACT_DIR=<committed CSV dir>")
endif()
if(NOT WORK_DIR)
    set(WORK_DIR ${CMAKE_CURRENT_BINARY_DIR})
endif()

set(dir ${WORK_DIR}/sharding_differential)
file(REMOVE_RECURSE ${dir})
file(MAKE_DIRECTORY ${dir})

# jobs=4 is safe: the sweep_determinism gate proves job count is
# output-neutral.
foreach(bench ${FIG02} ${FIG07} ${ABL_SHARDING})
    get_filename_component(name ${bench} NAME)
    execute_process(
        COMMAND ${bench} jobs=4 bench_json=
        WORKING_DIRECTORY ${dir}
        OUTPUT_FILE ${dir}/${name}.out
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${name} failed (rc=${rc}): ${err}")
    endif()
endforeach()

file(GLOB produced ${dir}/*.csv)
if(NOT produced)
    message(FATAL_ERROR "benches produced no CSVs to compare")
endif()

foreach(csv ${produced})
    get_filename_component(name ${csv} NAME)
    if(NOT EXISTS ${ARTIFACT_DIR}/${name})
        message(FATAL_ERROR
            "no committed artifact for '${name}' in ${ARTIFACT_DIR}; "
            "if this figure is new, regenerate and commit its CSV")
    endif()
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                ${csv} ${ARTIFACT_DIR}/${name}
        RESULT_VARIABLE diff)
    if(NOT diff EQUAL 0)
        message(FATAL_ERROR
            "'${name}' differs from the committed artifact: the "
            "model no longer reproduces its committed output "
            "byte-for-byte (fresh copy in ${dir}; if the change is "
            "intentional, regenerate and commit the CSV)")
    endif()
endforeach()
message(STATUS
    "sharding differential check passed: CSVs byte-identical to "
    "committed artifacts")
