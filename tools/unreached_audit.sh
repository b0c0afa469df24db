#!/usr/bin/env bash
# Lists the act:: library functions that no production program reaches.
#
# A production program is the `act` CLI, every bench/fig*, tab* and
# ext_* figure binary, every examples/*.cpp program, and
# perfbench_driver. The audit build compiles them without inlining and
# links them with section garbage collection, so a library function
# that no program calls is absent from every linked program:
#
#   cmake -S perfbench -B build-audit -DCMAKE_BUILD_TYPE=Debug \
#       "-DCMAKE_CXX_FLAGS_DEBUG=-Og -fno-inline -ffunction-sections -fdata-sections" \
#       -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
#   cmake --build build-audit -j 4 --target perfbench_all \
#       quickstart accelerator_designer storage_fleet_planner \
#       scenario_explorer green_datacenter
#   tools/unreached_audit.sh build-audit
#
# -Og rather than -O0: perfbench_driver refuses to run unoptimized, so
# at -O0 its main() ends in a fatal() and every call after it is
# unreached. With -fno-inline, -Og inlines nothing either.
#
# The script diffs the defined functions of the libact_*.a archives
# (mangled names in namespace act, members included) against those of
# the programs. It prints every unreached function that the keep-list
# below does not name, one demangled signature a line, and exits 1 if
# there is one. It also fails on a keep-list name that matches no
# unreached function, so the list cannot go stale. A function that is
# only ever inlined from a header is invisible to nm; find those with
# grep (DESIGN.md §16).
set -euo pipefail

if [ $# -ne 1 ] || [ ! -d "$1" ]; then
    echo "usage: $0 <audit build directory>" >&2
    exit 2
fi
build=$1
root=$(cd "$(dirname "$0")/.." && pwd)

# One name a line, then its reason. A name keeps every overload and
# instantiation of that function.
keep_list=$(cat <<'EOF'
act::util::setThreadCount test hook: sets the runChunks thread count inside one test process
act::util::setSimdLevel test hook: forces a SIMD dispatch level inside one test process
act::util::simd::detCos test hook: the scalar reference of the 4-lane job-stream kernel
act::util::simd::detExp test hook: the scalar reference of the 4-lane job-stream kernel
act::ssd::FtlSimulator::checkConsistency safety check: verifies the FTL's mapping invariants in tests
act::config::JsonValue::asArray the non-const overload lets tests corrupt a parsed document
act::config::JsonValue::asObject the non-const overload lets tests corrupt a parsed document
EOF
)

# Every program, found by name under the build tree.
programs=()
find_program() {
    local found
    found=$(find "$build" -type f -name "$1" -perm -u+x \
        -not -path '*/CMakeFiles/*' | head -n 1)
    if [ -z "$found" ]; then
        echo "unreached_audit: no program '$1' under $build" >&2
        exit 2
    fi
    programs+=("$found")
}
find_program act
find_program perfbench_driver
for source in "$root"/bench/fig*.cc "$root"/bench/tab*.cc \
              "$root"/bench/ext_*.cc "$root"/examples/*.cpp; do
    name=$(basename "$source")
    find_program "${name%.*}"
done

mapfile -t libraries < <(find "$build" -name 'libact_*.a' | sort)
if [ ${#libraries[@]} -eq 0 ]; then
    echo "unreached_audit: no libact_*.a under $build" >&2
    exit 2
fi

# Defined text symbols (global, local or weak); the libraries' are kept
# only when they are in namespace act.
defined_functions() {
    nm --defined-only "$@" 2>/dev/null |
        awk '$2 ~ /^[TtWi]$/ { print $3 }' | sort -u
}

unreached=$(comm -23 \
    <(defined_functions "${libraries[@]}" | grep -E '^_ZN[KVRO]*3act' || true) \
    <(defined_functions "${programs[@]}") |
    c++filt | sort -u)

printf '%s\n' "$unreached" | KEEP_LIST=$keep_list awk '
    BEGIN {
        n = split(ENVIRON["KEEP_LIST"], lines, "\n")
        for (i = 1; i <= n; i++) {
            split(lines[i], fields, " ")
            keep[fields[1]] = 0
        }
    }
    # A demangled signature names function k when k is followed by its
    # parameter list, template arguments or ABI tag, at the start or
    # after a return type.
    function names(sig, k,   i, c) {
        i = index(sig, k)
        if (i == 0 || (i > 1 && substr(sig, i - 1, 1) != " "))
            return 0
        c = substr(sig, i + length(k), 1)
        return c == "(" || c == "<" || c == "["
    }
    $0 != "" {
        for (k in keep) {
            if (names($0, k)) {
                keep[k]++
                next
            }
        }
        print
        failed = 1
    }
    END {
        for (k in keep) {
            if (keep[k] == 0) {
                print "stale keep-list entry: " k
                failed = 1
            }
        }
        exit failed
    }'
