#include "util/simd.h"

#include <atomic>
#include <string>

#include "util/env.h"
#include "util/logging.h"
#include "util/simd_kernels.h"

namespace act::util {

namespace {

bool
cpuHasAvx2()
{
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx2");
#else
    return false;
#endif
}

/** The resolved level, or -1 before first use. A plain atomic is
 *  enough: concurrent first uses race to store the same value. */
std::atomic<int> g_level{-1};

SimdLevel
clampToAvailable(SimdLevel level)
{
    if (simdLevelAvailable(level))
        return level;
    const SimdLevel detected = detectedSimdLevel();
    warn("SIMD level '", simdLevelName(level),
         "' is not available on this host; using '",
         simdLevelName(detected), "'");
    return detected;
}

} // namespace

const char *
simdLevelName(SimdLevel level)
{
    switch (level) {
    case SimdLevel::Scalar:
        return "scalar";
    case SimdLevel::Avx2:
        return "avx2";
    }
    return "unknown";
}

bool
simdLevelAvailable(SimdLevel level)
{
    switch (level) {
    case SimdLevel::Scalar:
        return true;
    case SimdLevel::Avx2:
        return simd::avx2Kernels() != nullptr && cpuHasAvx2();
    }
    return false;
}

SimdLevel
detectedSimdLevel()
{
    if (simdLevelAvailable(SimdLevel::Avx2))
        return SimdLevel::Avx2;
    return SimdLevel::Scalar;
}

SimdLevel
simdLevelFromName(const char *name)
{
    const std::string value(name);
    if (value == "scalar")
        return SimdLevel::Scalar;
    if (value == "avx2")
        return SimdLevel::Avx2;
    if (value != "auto") {
        warn("ACT_SIMD value '", value,
             "' is not scalar|avx2|auto; using auto");
    }
    return detectedSimdLevel();
}

SimdLevel
simdLevel()
{
    const int cached = g_level.load(std::memory_order_relaxed);
    if (cached >= 0)
        return static_cast<SimdLevel>(cached);
    const SimdLevel resolved = clampToAvailable(
        simdLevelFromName(envString("ACT_SIMD", "auto").c_str()));
    g_level.store(static_cast<int>(resolved),
                  std::memory_order_relaxed);
    return resolved;
}

SimdLevel
setSimdLevel(SimdLevel level)
{
    const SimdLevel actual = clampToAvailable(level);
    g_level.store(static_cast<int>(actual),
                  std::memory_order_relaxed);
    return actual;
}

namespace simd {

const KernelTable &
kernels(SimdLevel level)
{
    switch (level) {
    case SimdLevel::Scalar:
        return scalarKernels();
    case SimdLevel::Avx2:
        if (const KernelTable *table = avx2Kernels())
            return *table;
        break;
    }
    fatal("SIMD kernels for level '", simdLevelName(level),
          "' are not compiled into this binary");
}

const KernelTable &
activeKernels()
{
    return kernels(simdLevel());
}

} // namespace simd

} // namespace act::util
