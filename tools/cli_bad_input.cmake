# Drives `act sweep`, `act merge`, `act device-file`, `act trace-merge`
# and `act status` with broken input files and arguments -- a partial
# truncated as a dead shard leaves it, a partial with a negative chunk_begin, plans
# whose item count is out of integer range or above the 2^30 plan
# bound, a plan with a mistyped
# config field, a plan whose abatement range leaves the model's domain,
# a chiplet plan with a huge or fractional max_chiplets, a chiplet plan
# whose result overflows to infinity, partials whose metrics section
# is of the old v1 format or has a negative bucket count, Monte Carlo
# and mobile partials with a mistyped or missing payload field, Monte
# Carlo partials whose packed outputs have a bad hex digit, a length
# that is not a multiple of 16, a NaN or infinite sample, or an empty or
# non-string value, a v1 partial, a fleet partial with a negative job
# count, fleet plans with a huge deadline_samples or region day count,
# a duration sigma factor of 1, a region series whose total
# overflows or a jobs field in hours past 2^53 samples, a fleet plan
# whose slack far outruns its series (which must finish and exit 0),
# devices with a fractional or huge package count, a truncated trace,
# a mistyped trace and a trace with a negative epoch, a huge --shards
# flag, a shard count near 2^53 (which must still own the right chunks),
# `act cpa`/`logic`/`footprint`/`status`/`sweep` numbers
# that do not parse whole, overflow, are NaN or leave their argument's
# range, `act cpa`/`logic`/`storage`/`footprint`/`device`/`device-file`/
# `lifecycle`/`soc` inputs whose result overflows to infinity, and `sweep`/`merge --out` and
# `merge --metrics-prom` to a full device --
# and checks that each run exits 1 with one `fatal:`
# diagnostic naming the file and the field instead of aborting (and,
# for merge, before writing --out). A heartbeat with bad counts must
# instead be skipped by `act status` with a warning, and a trace or
# `--prom` snapshot that cannot be written must warn.
#
#   cmake -DACT=<act binary> -DPLAN=<sweep plan> -DWORK_DIR=<dir> \
#         -P cli_bad_input.cmake

set(ENV{ACT_THREADS} 1)
set(ENV{ACT_HEARTBEAT} 0)
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_act)
    execute_process(COMMAND "${ACT}" ${ARGN}
        WORKING_DIRECTORY "${WORK_DIR}"
        RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE stderr)
    set(status "${status}" PARENT_SCOPE)
    set(stderr "${stderr}" PARENT_SCOPE)
endfunction()

# Expect exit status 1 and exactly one fatal diagnostic, matching
# `pattern`.
function(expect_fatal what pattern)
    run_act(${ARGN})
    string(REGEX MATCHALL "fatal:" fatal_lines "${stderr}")
    list(LENGTH fatal_lines fatal_count)
    if(NOT status STREQUAL "1" OR NOT fatal_count EQUAL 1
       OR NOT stderr MATCHES "^fatal: ${pattern}")
        message(FATAL_ERROR "${what}: expected exit 1 and one 'fatal: "
                            "${pattern}', got exit ${status}:\n${stderr}")
    endif()
    message(STATUS "${what}: ${stderr}")
endfunction()

# Like expect_fatal, and the run must not have written `file`.
function(expect_fatal_without what pattern file)
    file(REMOVE "${WORK_DIR}/${file}")
    expect_fatal("${what}" "${pattern}" ${ARGN})
    if(EXISTS "${WORK_DIR}/${file}")
        message(FATAL_ERROR "${what}: ${file} was written")
    endif()
endfunction()

foreach(index 0 1)
    run_act(sweep --plan "${PLAN}" --shards 2 --shard-index ${index}
            --out part${index}.json)
    if(NOT status STREQUAL "0")
        message(FATAL_ERROR "shard ${index} failed:\n${stderr}")
    endif()
endforeach()

file(READ "${WORK_DIR}/part1.json" partial LIMIT 4096)
file(WRITE "${WORK_DIR}/trunc.json" "${partial}")
expect_fatal("truncated partial"
    "failed to parse sweep partial 'trunc.json': .* at line [0-9]+, column [0-9]+"
    merge part0.json trunc.json)

# A negative shard field must be rejected naming the partial and the
# field, not cast to a 2^64-scale index.
file(READ "${WORK_DIR}/part1.json" partial)
string(REGEX REPLACE "\"chunk_begin\": *[0-9]+" "\"chunk_begin\": -5"
       negative_begin "${partial}")
if(negative_begin STREQUAL partial)
    message(FATAL_ERROR "no chunk_begin to corrupt in part1.json")
endif()
file(WRITE "${WORK_DIR}/negative_begin.json" "${negative_begin}")
expect_fatal("negative chunk_begin"
    "bad sweep partial 'negative_begin\\.json': 'chunk_begin' must be a non-negative integer \\(got -5\\)"
    merge part0.json negative_begin.json)

file(READ "${PLAN}" plan)
string(REGEX REPLACE "\"items\": *[0-9]+" "\"items\": 1e30" huge "${plan}")
file(WRITE "${WORK_DIR}/huge.json" "${huge}")
expect_fatal("items out of range"
    "bad sweep plan 'huge\\.json': 'items' must be an integer in \\[0, 1073741824\\] \\(got 1e\\+30\\)"
    sweep --plan huge.json)

# 1e13 items is a valid 64-bit count but used to abort with
# std::bad_alloc in planChunks; the plan reader bounds it at 2^30 at
# any thread count.
string(REGEX REPLACE "\"items\": *[0-9]+" "\"items\": 1e13" too_many "${plan}")
file(WRITE "${WORK_DIR}/too_many.json" "${too_many}")
foreach(threads 1 4)
    set(ENV{ACT_THREADS} ${threads})
    expect_fatal("items above the plan bound at ${threads} threads"
        "bad sweep plan 'too_many\\.json': 'items' must be an integer in \\[0, 1073741824\\] \\(got 1e\\+13\\)"
        sweep --plan too_many.json)
endforeach()
set(ENV{ACT_THREADS} 1)

string(REGEX REPLACE "\"node_nm\": *([0-9]+)" "\"node_nm\": \"\\1\""
       mistyped "${plan}")
file(WRITE "${WORK_DIR}/mistyped.json" "${mistyped}")
expect_fatal("mistyped config field"
    "bad sweep plan 'mistyped\\.json': 'node_nm' must be a number > 0 \\(got \"14\"\\)"
    sweep --plan mistyped.json)

# An abatement range reaching past 1.0 is rejected when the plan is
# prepared, before any sample is drawn, with the same message at any
# thread count. (Fatals raised on worker threads are covered by the
# act_cli_concurrent_fatal test.)
string(REGEX REPLACE "(\"abatement\",[^}]*\"high\": *)1\\.0"
       "\\11.00002" bad_abatement "${plan}")
if(bad_abatement STREQUAL plan)
    message(FATAL_ERROR "could not raise the abatement bound in ${PLAN}")
endif()
file(WRITE "${WORK_DIR}/bad_abatement.json" "${bad_abatement}")
set(ENV{ACT_THREADS} 4)
expect_fatal("abatement range"
    "bad sweep plan 'bad_abatement\\.json': parameters\\[2\\]: 'high' must be a number in \\[0\\.9, 1\\] \\(got 1\\.00002\\)"
    sweep --plan bad_abatement.json)
set(ENV{ACT_THREADS} 1)

# A chiplet max_chiplets of 1e9 used to abort with std::bad_alloc and
# 2.5 was truncated to 2; both must be rejected naming the field.
foreach(count 1e9 2.5)
    file(WRITE "${WORK_DIR}/chiplet_${count}.json"
         "{\"domain\": \"chiplet\", \"config\": "
         "{\"logic_area_mm2\": 800, \"max_chiplets\": ${count}}}\n")
endforeach()
expect_fatal("max_chiplets 1e9"
    "bad sweep plan 'chiplet_1e9\\.json': 'max_chiplets' must be an integer in \\[1, 1024\\] \\(got 1e\\+09\\)"
    sweep --plan chiplet_1e9.json)
expect_fatal("max_chiplets 2.5"
    "bad sweep plan 'chiplet_2\\.5\\.json': 'max_chiplets' must be an integer in \\[1, 1024\\] \\(got 2\\.5\\)"
    sweep --plan chiplet_2.5.json)

# A logic area of 1e300 mm2 overflows every package total to infinity,
# which JSON cannot carry. Writing the result used to succeed with
# `"total_g": inf`, a file `act merge` then failed to parse; it must
# fail naming the output file, and leave no partly written file.
file(WRITE "${WORK_DIR}/chiplet_inf.json"
     "{\"domain\": \"chiplet\", \"config\": "
     "{\"logic_area_mm2\": 1e300, \"max_chiplets\": 2}}\n")
expect_fatal_without("non-finite result"
    "cannot write JSON file 'chiplet_inf_out\\.json': JSON cannot represent the non-finite number"
    chiplet_inf_out.json
    sweep --plan chiplet_inf.json --out chiplet_inf_out.json)

# A partial's metrics section of the old v1 format, which could carry a
# metric kind v2 no longer has, must be refused as a whole rather than
# merged without it, and a negative bucket count was once summed into
# the merged metrics. Both must name the partial and the field.
set(ENV{ACT_METRICS} 1)
foreach(index 0 1)
    run_act(sweep --plan "${PLAN}" --shards 2 --shard-index ${index}
            --out metrics_part${index}.json)
    if(NOT status STREQUAL "0")
        message(FATAL_ERROR "metrics shard ${index} failed:\n${stderr}")
    endif()
endforeach()
unset(ENV{ACT_METRICS})
file(READ "${WORK_DIR}/metrics_part1.json" metrics_partial)
string(REPLACE "\"act.metrics.v2\"" "\"act.metrics.v1\"" v1_metrics
       "${metrics_partial}")
string(REGEX REPLACE "(\"counts\": *\\[[ \n]*)0" "\\1-3" negative_bucket
       "${metrics_partial}")
if(v1_metrics STREQUAL metrics_partial OR
   negative_bucket STREQUAL metrics_partial)
    message(FATAL_ERROR "no v2 metrics or histogram in metrics_part1.json")
endif()
file(WRITE "${WORK_DIR}/metrics_v1.json" "${v1_metrics}")
expect_fatal("a v1 metrics section is refused on 'format'"
    "bad metrics in sweep partial 'metrics_v1\\.json': 'format' must be one of 'act\\.metrics\\.v2' \\(got \"act\\.metrics\\.v1\"\\)"
    merge metrics_part0.json metrics_v1.json)
file(WRITE "${WORK_DIR}/metrics_negative.json" "${negative_bucket}")
expect_fatal("negative bucket count"
    "bad metrics in sweep partial 'metrics_negative\\.json': histogram '[^']+': 'counts\\[0\\]' must be a non-negative integer \\(got -3\\)"
    merge metrics_part0.json metrics_negative.json)

# A write that fails (here: a full device) used to go unchecked, so the
# run printed its summary and exited 0 with no result written.
if(EXISTS /dev/full)
    expect_fatal("sweep --out to a full device"
        "cannot write JSON file '/dev/full'"
        sweep --plan "${PLAN}" --out /dev/full)
    expect_fatal("merge --out to a full device"
        "cannot write JSON file '/dev/full'"
        merge part0.json part1.json --out /dev/full)
    expect_fatal("merge --metrics-prom to a full device"
        "cannot write '/dev/full'"
        merge metrics_part0.json metrics_part1.json --metrics-prom /dev/full)
    # The calculator's own telemetry is best effort: a failed write
    # warns, and the command's result and exit status stand. The trace
    # is written once, at exit, so it warns once.
    set(ENV{ACT_TRACE} /dev/full)
    run_act(cpa 7)
    unset(ENV{ACT_TRACE})
    if(NOT status STREQUAL "0" OR NOT stderr STREQUAL
       "warn: cannot write trace file '/dev/full'\n")
        message(FATAL_ERROR "trace to a full device: expected exit 0 and "
                            "one warning line, got exit ${status}:\n"
                            "${stderr}")
    endif()
    run_act(cpa 7 --prom /dev/full)
    if(NOT status STREQUAL "0" OR NOT stderr MATCHES
       "^warn: cannot write Prometheus snapshot to '/dev/full'")
        message(FATAL_ERROR "--prom to a full device: expected exit 0 and "
                            "a warning, got exit ${status}:\n${stderr}")
    endif()
endif()

# A Monte Carlo partial whose payload field is mistyped or missing used
# to abort `act merge` on an uncaught JSON exception after --out was
# written. The summary reads every payload before --out is written, so
# the run must fail naming the chunk and write nothing.
file(READ "${WORK_DIR}/part1.json" partial)
string(REGEX MATCH "\"chunk_begin\": *([0-9]+)" unused "${partial}")
set(first_chunk "${CMAKE_MATCH_1}")
string(REGEX REPLACE "(\"sum\": *)[-0-9.e+]+" "\\1\"x\"" string_sum
       "${partial}")
string(REGEX REPLACE "\"sum\": *[-0-9.e+]+," "" no_sum "${partial}")
if(string_sum STREQUAL partial OR no_sum STREQUAL partial)
    message(FATAL_ERROR "no Monte Carlo payload to corrupt in part1.json")
endif()
file(WRITE "${WORK_DIR}/string_sum.json" "${string_sum}")
expect_fatal_without("mistyped Monte Carlo sum"
    "bad sweep partials: chunk ${first_chunk}: 'sum' must be a number \\(got \"x\"\\)"
    merged_bad.json
    merge part0.json string_sum.json --out merged_bad.json)
file(WRITE "${WORK_DIR}/no_sum.json" "${no_sum}")
expect_fatal_without("missing Monte Carlo sum"
    "bad sweep partials: chunk ${first_chunk}: missing 'sum'"
    merged_bad.json
    merge part0.json no_sum.json --out merged_bad.json)

# A partial carries each chunk's Monte Carlo outputs as one packed
# array, {"f64": "<hex>"}: 16 hex digits of IEEE-754 bits per sample.
# A packed array with a bad digit, a length that is not a multiple of
# 16, a NaN or infinite sample, or a value that is not a string, and a
# partial of the old v1 format, must each fail reading the partial,
# naming the file and the chunk, before --out is written.
string(REGEX MATCH "\"f64\": *\"([0-9a-f]+)\"" unused "${partial}")
set(hex "${CMAKE_MATCH_1}")
string(LENGTH "${hex}" hex_length)
math(EXPR samples "${hex_length} / 16")
math(EXPR last_sample "${samples} - 1")
math(EXPR remainder "${hex_length} % 16")
if(samples LESS 2 OR NOT remainder EQUAL 0)
    message(FATAL_ERROR "no packed Monte Carlo outputs in part1.json")
endif()
string(SUBSTRING "${hex}" 1 -1 hex_tail_1)
string(SUBSTRING "${hex}" 16 -1 hex_tail_16)
math(EXPR short_length "${hex_length} - 1")
string(SUBSTRING "${hex}" 0 ${short_length} short_hex)
math(EXPR last_begin "${last_sample} * 16")
string(SUBSTRING "${hex}" ${last_begin} 15 last_digits)

# <case>|<replacement of the first packed array>|<expected message>
set(packed_cases
    "nonhex|\"g${hex_tail_1}\"|'f64\\[0\\]' must be 16 hex digits of a finite number \\(got \"g[0-9a-f]+\"\\)"
    "upper|\"A${hex_tail_1}\"|'f64\\[0\\]' must be 16 hex digits of a finite number \\(got \"A[0-9a-f]+\"\\)"
    "short|\"${short_hex}\"|'f64\\[${last_sample}\\]' must be 16 hex digits of a finite number \\(got \"${last_digits}\"\\)"
    "nan|\"7ff8000000000000${hex_tail_16}\"|'f64\\[0\\]' must be 16 hex digits of a finite number \\(got \"7ff8000000000000\"\\)"
    "inf|\"7ff0000000000000${hex_tail_16}\"|'f64\\[0\\]' must be 16 hex digits of a finite number \\(got \"7ff0000000000000\"\\)"
    "empty|\"\"|'f64' must be a non-empty string of 16 hex digits per number \\(got \"\"\\)"
    "number|5|'f64' must be a non-empty string of 16 hex digits per number \\(got 5\\)")
foreach(packed_case IN LISTS packed_cases)
    string(REPLACE "|" ";" fields "${packed_case}")
    list(GET fields 0 name)
    list(GET fields 1 replacement)
    list(GET fields 2 message)
    string(REPLACE "\"${hex}\"" "${replacement}" corrupt "${partial}")
    if(corrupt STREQUAL partial)
        message(FATAL_ERROR "could not corrupt the packed outputs (${name})")
    endif()
    file(WRITE "${WORK_DIR}/packed_${name}.json" "${corrupt}")
    expect_fatal_without("packed outputs: ${name}"
        "bad sweep partial 'packed_${name}\\.json': chunk ${first_chunk}: ${message}"
        merged_bad.json
        merge part0.json packed_${name}.json --out merged_bad.json)
endforeach()

string(REPLACE "\"act.sweep.partial.v2\"" "\"act.sweep.partial.v1\""
       v1_partial "${partial}")
if(v1_partial STREQUAL partial)
    message(FATAL_ERROR "no partial format to rewrite in part1.json")
endif()
file(WRITE "${WORK_DIR}/v1_partial.json" "${v1_partial}")
expect_fatal_without("v1 partial"
    "bad sweep partial 'v1_partial\\.json': 'format' must be one of 'act\\.sweep\\.partial\\.v2' \\(got \"act\\.sweep\\.partial\\.v1\"\\)"
    merged_bad.json
    merge part0.json v1_partial.json --out merged_bad.json)

# The same for a mobile partial's embodied_kg.
file(WRITE "${WORK_DIR}/mobile_plan.json" "{\"domain\": \"mobile\"}\n")
foreach(index 0 1)
    run_act(sweep --plan mobile_plan.json --shards 2 --shard-index ${index}
            --out mobile_part${index}.json)
    if(NOT status STREQUAL "0")
        message(FATAL_ERROR "mobile shard ${index} failed:\n${stderr}")
    endif()
endforeach()
file(READ "${WORK_DIR}/mobile_part1.json" mobile_partial)
string(REGEX MATCH "\"chunk_begin\": *([0-9]+)" unused "${mobile_partial}")
set(first_chunk "${CMAKE_MATCH_1}")
string(REGEX REPLACE "(\"embodied_kg\": *)[-0-9.e+]+" "\\1\"x\""
       string_kg "${mobile_partial}")
if(string_kg STREQUAL mobile_partial)
    message(FATAL_ERROR "no embodied_kg to corrupt in mobile_part1.json")
endif()
file(WRITE "${WORK_DIR}/mobile_string_kg.json" "${string_kg}")
expect_fatal_without("mistyped mobile embodied_kg"
    "bad sweep partials: chunk ${first_chunk}: 'embodied_kg' must be a number \\(got \"x\"\\)"
    merged_bad.json
    merge mobile_part0.json mobile_string_kg.json --out merged_bad.json)

# A fleet partial whose job count was edited to -1 used to be cast to
# a huge count and merged. It must name the chunk and the scenario.
file(WRITE "${WORK_DIR}/fleet_plan.json" [=[
{"domain": "fleet", "items": 2000, "grain": 256, "seed": 42,
 "config": {"regions": [{"name": "is-flat", "profile": "flat",
                         "region": "Iceland"}],
            "jobs": {"horizon_hours": 48}}}
]=])
foreach(index 0 1)
    run_act(sweep --plan fleet_plan.json --shards 2 --shard-index ${index}
            --out fleet_part${index}.json)
    if(NOT status STREQUAL "0")
        message(FATAL_ERROR "fleet shard ${index} failed:\n${stderr}")
    endif()
endforeach()
file(READ "${WORK_DIR}/fleet_part1.json" fleet_partial)
string(REGEX REPLACE "\"jobs\": *[0-9]+" "\"jobs\": -1" negative_jobs
       "${fleet_partial}")
if(negative_jobs STREQUAL fleet_partial)
    message(FATAL_ERROR "no job count to corrupt in fleet_part1.json")
endif()
file(WRITE "${WORK_DIR}/fleet_negative.json" "${negative_jobs}")
expect_fatal_without("negative fleet job count"
    "bad sweep partials: chunk 4 scenario 'uniform@is-flat/4\\.00y': 'jobs' must be a non-negative integer \\(got -1\\)"
    merged_bad.json
    merge fleet_part0.json fleet_negative.json --out merged_bad.json)

# A deadline or a region day count past any real series used to
# overflow a size_t cast (and exit 0) or abort on std::bad_alloc.
file(READ "${WORK_DIR}/fleet_plan.json" fleet_plan)
string(REPLACE "\"horizon_hours\": 48}" "\"horizon_hours\": 48},
            \"deadline_samples\": 1e300" deadline_plan "${fleet_plan}")
string(REPLACE "\"region\": \"Iceland\"" "\"region\": \"Iceland\", \"days\": 1e12"
       days_plan "${fleet_plan}")
if(deadline_plan STREQUAL fleet_plan OR days_plan STREQUAL fleet_plan)
    message(FATAL_ERROR "could not edit fleet_plan.json")
endif()
file(WRITE "${WORK_DIR}/fleet_deadline.json" "${deadline_plan}")
expect_fatal("huge deadline_samples"
    "bad sweep plan 'fleet_deadline\\.json': 'deadline_samples' must be an integer >= 1 \\(got 1e\\+300\\)"
    sweep --plan fleet_deadline.json)
file(WRITE "${WORK_DIR}/fleet_days.json" "${days_plan}")
expect_fatal("huge region days"
    "bad sweep plan 'fleet_days\\.json': regions\\[0\\]: 'days' must be an integer in \\[1, 36525\\] \\(got 1e\\+12\\)"
    sweep --plan fleet_days.json)

# A duration sigma factor of 1 used to pass the plan reader and then
# fail inside a chunk, on a worker, with a line naming neither the file
# nor the field. It must fail at load, at any thread count, with no
# --out written.
string(REPLACE "\"horizon_hours\": 48}"
       "\"horizon_hours\": 48, \"duration_sigma_factor\": 1}"
       sigma_plan "${fleet_plan}")
if(sigma_plan STREQUAL fleet_plan)
    message(FATAL_ERROR "could not edit fleet_plan.json")
endif()
file(WRITE "${WORK_DIR}/fleet_sigma.json" "${sigma_plan}")
foreach(threads 1 4)
    set(ENV{ACT_THREADS} ${threads})
    expect_fatal_without("unit duration_sigma_factor at ${threads} threads"
        "bad sweep plan 'fleet_sigma\\.json': jobs: 'duration_sigma_factor' must be a number > 1 \\(got 1\\)"
        sigma_out.json
        sweep --plan fleet_sigma.json --out sigma_out.json)
endforeach()
set(ENV{ACT_THREADS} 1)

# A jobs field in hours past 2^53 samples used to overflow a
# double -> size_t cast and exit 0 with wrong totals: a slack of 1e25 h
# read as one shift (no job deferred), a horizon of 1e30 h overflowed
# the arrival sample, and durations of 1e25 h (with a lifetime long
# enough to amortize them) overflowed the whole-sample count. Each must
# fail at load, naming the field.
string(REPLACE "\"horizon_hours\": 48}"
       "\"horizon_hours\": 48, \"max_slack_hours\": 1e25}"
       huge_slack_plan "${fleet_plan}")
string(REPLACE "\"horizon_hours\": 48}" "\"horizon_hours\": 1e30}"
       huge_horizon_plan "${fleet_plan}")
string(REPLACE "\"horizon_hours\": 48}"
       "\"horizon_hours\": 48, \"median_duration_hours\": 1e25, \"max_duration_hours\": 1e25}"
       huge_duration_plan "${fleet_plan}")
string(REPLACE "\"config\": {" "\"config\": {\"lifetime_years\": [1e300], "
       huge_duration_plan "${huge_duration_plan}")
foreach(edited huge_slack_plan huge_horizon_plan huge_duration_plan)
    if(${edited} STREQUAL fleet_plan)
        message(FATAL_ERROR "could not edit fleet_plan.json for ${edited}")
    endif()
endforeach()
file(WRITE "${WORK_DIR}/fleet_huge_slack.json" "${huge_slack_plan}")
expect_fatal("slack past 2^53 samples"
    "bad sweep plan 'fleet_huge_slack\\.json': jobs: 'max_slack_hours' must be at most 2\\^53 samples of 1 h \\(got 1e\\+25\\)"
    sweep --plan fleet_huge_slack.json)
file(WRITE "${WORK_DIR}/fleet_huge_horizon.json" "${huge_horizon_plan}")
expect_fatal("horizon past 2^53 samples"
    "bad sweep plan 'fleet_huge_horizon\\.json': jobs: 'horizon_hours' must be at most 2\\^53 samples of 1 h \\(got 1e\\+30\\)"
    sweep --plan fleet_huge_horizon.json)
file(WRITE "${WORK_DIR}/fleet_huge_duration.json" "${huge_duration_plan}")
expect_fatal("durations past 2^53 samples"
    "bad sweep plan 'fleet_huge_duration\\.json': jobs: 'median_duration_hours' must be at most 2\\^53 samples of 1 h \\(got 1e\\+25\\)"
    sweep --plan fleet_huge_duration.json)

# A slack of 1e9 h used to scan a billion shifts per deferrable job, so
# a year-long fleet plan of 1000 jobs ran for minutes. Each shift
# window is now capped at the series length (a shift one series later
# costs the same, and the earlier one wins), so it finishes and exits 0.
file(WRITE "${WORK_DIR}/fleet_long_slack.json" [=[
{"domain": "fleet", "items": 1000, "seed": 42,
 "config": {"pue": 1.3, "lifetime_years": [4],
            "policies": ["uniform", "greedy", "deadline", "migrate"],
            "regions": [
                {"name": "tw-solar", "profile": "solar", "region": "Taiwan",
                 "share": 0.25, "days": 365, "seasonal_amplitude": 0.15},
                {"name": "us-wind", "profile": "wind",
                 "region": "United States", "share": 0.3, "days": 365},
                {"name": "is-flat", "profile": "flat", "region": "Iceland",
                 "days": 365}],
            "jobs": {"horizon_hours": 8760, "max_slack_hours": 1e9}}}
]=])
run_act(sweep --plan fleet_long_slack.json --out long_slack_out.json)
if(NOT status STREQUAL "0" OR NOT EXISTS "${WORK_DIR}/long_slack_out.json")
    message(FATAL_ERROR "slack of 1e9 h: expected exit 0 and a result, "
                        "got exit ${status}:\n${stderr}")
endif()
message(STATUS "slack of 1e9 h: exit 0")

# A region whose samples sum past the double range used to run the
# whole sweep on NaN window costs (inf - inf) and only then fail in the
# JSON writer. It must fail at load, naming the region, with no --out.
string(REPEAT "1e308, " 23 huge_samples)
file(WRITE "${WORK_DIR}/fleet_overflow.json"
     "{\"domain\": \"fleet\", \"items\": 5000, \"config\": {\"regions\": ["
     "{\"samples_g_per_kwh\": [${huge_samples}1e308]}, "
     "{\"samples_g_per_kwh\": [100, 100, 100, 100, 100, 100, 100, 100, "
     "100, 100, 100, 100, 100, 100, 100, 100, 100, 100, 100, 100, 100, "
     "100, 100, 100]}], \"jobs\": {\"horizon_hours\": 24}}}\n")
expect_fatal_without("overflowing fleet region series"
    "bad sweep plan 'fleet_overflow\\.json': regions\\[0\\]: the series must sum to a finite number of g CO2/kWh \\(got inf\\)"
    overflow_out.json
    sweep --plan fleet_overflow.json --out overflow_out.json)

# A shard count past 2^64 used to be cast before the range check.
expect_fatal("huge --shards"
    "flag --shards expects a non-negative integer, got 1e\\+300"
    sweep --plan "${PLAN}" --shards 1e300 --shard-index 0 --out huge_shards.json)

# The last of 2^53 shards over 10000 one-item chunks owns chunk 9999.
# chunks * shard_index used to wrap in 64 bits, so it claimed
# chunks [1807, 1808) and exited 0.
string(REGEX REPLACE "\"items\": *[0-9]+" "\"items\": 10000, \"grain\": 1"
       fine_grain "${plan}")
file(WRITE "${WORK_DIR}/fine_grain.json" "${fine_grain}")
execute_process(COMMAND "${ACT}" sweep --plan fine_grain.json
        --shards 9007199254740992 --shard-index 9007199254740991
        --out last_shard.json
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE status OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
if(NOT status STREQUAL "0" OR NOT stdout MATCHES
   "^shard 9007199254740991/9007199254740992 of 'cpa_montecarlo': chunks \\[9999, 10000\\) ")
    message(FATAL_ERROR "last of 2^53 shards: expected exit 0 and chunks "
                        "[9999, 10000), got exit ${status}:\n${stdout}${stderr}")
endif()
message(STATUS "last of 2^53 shards: ${stdout}")

# A command-line number must parse whole, be finite and lie in its
# argument's range. These used to abort on an uncaught std::stod
# exception (exit 134), run on a prefix ("7x" as 7 nm, "3x" as 3
# shards), loop without sleeping (--watch nan), or print a negative or
# NaN footprint.
file(MAKE_DIRECTORY "${WORK_DIR}/no_heartbeats")
file(WRITE "${WORK_DIR}/device_huge.json"
     "{\"name\": \"d\", \"ics\": [{\"name\": \"Flash\", \"kind\": \"nand\", "
     "\"capacity_gb\": 1e308, \"technology\": \"10nm NAND\"}], "
     "\"lca\": {\"total_kg\": 60, \"production_share\": 0.8, "
     "\"use_share\": 0.15, \"transport_share\": 0.04, "
     "\"eol_share\": 0.01}}\n")
foreach(threads 1 4)
    set(ENV{ACT_THREADS} ${threads})
    expect_fatal("non-numeric node at ${threads} threads"
        "cpa <node_nm> expects a number, got 'abc'"
        cpa abc)
    expect_fatal("node past double range at ${threads} threads"
        "cpa <node_nm> expects a number, got '1e400'"
        cpa 1e400)
    expect_fatal("node with trailing text at ${threads} threads"
        "cpa <node_nm> expects a number, got '7x'"
        cpa 7x --yield 0.9zz)
    expect_fatal("yield with trailing text at ${threads} threads"
        "flag --yield expects a number, got '0\\.9zz'"
        cpa 7 --yield 0.9zz)
    expect_fatal_without("shard count with trailing text at ${threads} threads"
        "flag --shards expects a non-negative integer, got '3x'"
        prefix_shards.json
        sweep --plan "${PLAN}" --shards 3x --shard-index 0 --out prefix_shards.json)
    expect_fatal("NaN watch interval at ${threads} threads"
        "flag --watch expects a number in \\[0, 3600\\], got nan"
        status no_heartbeats --watch nan)
    expect_fatal("negative logic area at ${threads} threads"
        "logic <area_mm2> expects a number >= 0, got -5"
        logic -5 7)
    expect_fatal("NaN energy at ${threads} threads"
        "flag --energy-kwh expects a number >= 0, got nan"
        footprint --energy-kwh nan --embodied-g 1 --time-years 1
                  --lifetime-years 4)
    # Finite inputs whose result overflows used to print inf and exit 0.
    expect_fatal("overflowing logic result at ${threads} threads"
        "logic result is not a finite number \\(got inf\\)"
        logic 1e308 7)
    expect_fatal("overflowing storage result at ${threads} threads"
        "storage result is not a finite number \\(got inf\\)"
        storage LPDDR4 1e308)
    expect_fatal("overflowing CPA at ${threads} threads"
        "cpa result is not a finite number \\(got inf\\)"
        cpa 7 --fab-ci 1.5e308)
    expect_fatal("overflowing OPCF at ${threads} threads"
        "footprint OPCF is not a finite number \\(got inf\\)"
        footprint --energy-kwh 1e308 --embodied-g 1 --time-years 1
                  --lifetime-years 4)
    expect_fatal("overflowing CF at ${threads} threads"
        "footprint CF is not a finite number \\(got inf\\)"
        footprint --energy-kwh 1e308 --ci-use 1 --embodied-g 1e308
                  --time-years 1 --lifetime-years 1)
    expect_fatal("overflowing device-file IC at ${threads} threads"
        "'Flash' footprint is not a finite number \\(got inf\\)"
        device-file device_huge.json)
    expect_fatal("overflowing device IC at ${threads} threads"
        "'A13 Bionic SoC' footprint is not a finite number \\(got inf\\)"
        device "iPhone 11" --fab-ci 1.5e308)
    expect_fatal("overflowing lifecycle phase at ${threads} threads"
        "lifecycle IC manufacturing \\(ACT bottom-up\\) is not a finite number \\(got inf\\)"
        lifecycle device_huge.json)
    expect_fatal("overflowing SoC embodied at ${threads} threads"
        "SoC embodied is not a finite number \\(got inf\\)"
        soc "Exynos 9820" --fab-ci 1.5e308)
endforeach()
set(ENV{ACT_THREADS} 1)

# A device's package count of 2.7 used to truncate to 2, and 3e9 to
# wrap into a "non-positive package count".
foreach(packages 2.7 3e9)
    file(WRITE "${WORK_DIR}/device_${packages}.json"
         "{\"name\": \"d\", \"ics\": [{\"name\": \"m\", \"kind\": \"dram\", "
         "\"capacity_gb\": 4, \"technology\": \"LPDDR4\", "
         "\"packages\": ${packages}}]}\n")
endforeach()
expect_fatal("fractional package count"
    "bad device file 'device_2\\.7\\.json': ics\\[0\\]: 'packages' must be an integer in \\[1, 2147483647\\] \\(got 2\\.7\\)"
    device-file device_2.7.json)
expect_fatal("huge package count"
    "bad device file 'device_3e9\\.json': ics\\[0\\]: 'packages' must be an integer in \\[1, 2147483647\\] \\(got 3e\\+09\\)"
    device-file device_3e9.json)

# A truncated trace and a trace with a mistyped event field must make
# `act trace-merge` exit 1 naming the file, not abort on an uncaught
# JSON exception.
file(WRITE "${WORK_DIR}/trunc_trace.json" "[\n")
expect_fatal("truncated trace"
    "failed to parse trace 'trunc_trace\\.json': unexpected end of input at line 2, column 1"
    trace-merge merged_trace.json trunc_trace.json)
file(WRITE "${WORK_DIR}/typed_trace.json"
     "{\"traceEvents\":[{\"ts\":\"x\",\"ph\":5}]}\n")
expect_fatal("mistyped trace event"
    "bad trace 'typed_trace\\.json': 'ts' must be a number \\(got \"x\"\\)"
    trace-merge merged_trace.json typed_trace.json)
# A negative epoch used to wrap and shift the merged timeline.
file(WRITE "${WORK_DIR}/epoch_trace.json"
     "{\"traceEvents\":[{\"name\":\"trace_epoch\",\"ph\":\"M\","
     "\"args\":{\"wall_epoch_us\":-5}}]}\n")
expect_fatal("negative trace epoch"
    "bad trace 'epoch_trace\\.json': 'wall_epoch_us' must be a non-negative integer \\(got -5\\)"
    trace-merge merged_trace.json epoch_trace.json)

# A heartbeat whose counts are mistyped, out of range, or negative is
# skipped with a warning; `act status` still exits 0.
file(MAKE_DIRECTORY "${WORK_DIR}/heartbeats")
file(WRITE "${WORK_DIR}/heartbeats/bad.heartbeat.json"
     "{\"format\":\"act.heartbeat.v1\",\"shard_index\":\"zero\","
     "\"shard_count\":1e300,\"items_done\":-5}\n")
run_act(status heartbeats)
if(NOT status STREQUAL "0" OR NOT stderr MATCHES
   "^warn: skipping unparseable heartbeat file 'heartbeats/bad\\.heartbeat\\.json'")
    message(FATAL_ERROR "bad heartbeat: expected exit 0 and a 'warn: "
                        "skipping' line, got exit ${status}:\n${stderr}")
endif()
message(STATUS "bad heartbeat: ${stderr}")
