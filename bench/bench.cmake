# Benchmark targets (one binary per paper table/figure — see DESIGN.md §4).
# Included from the top-level CMakeLists so that build/bench/ contains only
# the executables: the repro loop is `for b in build/bench/*; do $b; done`.

function(pmp_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE
    pmp_common pmp_sim pmp_crypto pmp_net pmp_rt pmp_script
    pmp_prose pmp_disco pmp_midas pmp_robot pmp_db pmp_specmini pmp_tspace
    benchmark::benchmark)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

pmp_bench(bench_interception)
pmp_bench(bench_platform_overhead)
pmp_bench(bench_weaving)
pmp_bench(bench_extension_cost)
pmp_bench(bench_callpath)
pmp_bench(bench_monitoring)
pmp_bench(bench_db)
pmp_bench(bench_leasing)
pmp_bench(bench_adaptation_scale)
pmp_bench(bench_trust)
pmp_bench(bench_tspace)
pmp_bench(bench_script)

# The script-engine ablation times the reference interpreter (tests/support).
target_link_libraries(bench_interception PRIVATE pmp_script_oracle)
