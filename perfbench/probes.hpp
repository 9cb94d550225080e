// Host-cost probes: each drives one layer's public API directly (core,
// hierarchy, mem, sim, sync, verify, fault) on a small fixed fixture and
// reports the median host nanoseconds per call. The fixtures are plain
// hierarchies and engines assembled the way Machine assembles them, so a
// probe measures the code a workload runs, without the workload around it.
//
// Every probe also fingerprints the simulated outcome of the operations it
// performed (latencies, cycles, final counters). Running a probe untimed
// gives the same fingerprint as running it timed: the timer observes host
// time only and never changes what is simulated.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

struct ProbeResult {
  std::string name;  ///< per-layer metric name, e.g. "core.read_hit_ns"
  double ns = 0;     ///< median host ns per call (0 when run untimed)
  /// Hash of every simulated outcome the probe observed.
  std::uint64_t fingerprint = 0;
};

/// Called with a probe's name before (begin = true) and after it runs.
using ProbeHook = std::function<void(const std::string& name, bool begin)>;

/// Runs every probe in a fixed order. With `timed` false the probes perform
/// the identical simulated operations without reading the clock.
[[nodiscard]] std::vector<ProbeResult> run_probes(
    bool timed, const ProbeHook& on_probe = nullptr);

/// FNV-1a over `n` bytes, continuing from `h`.
[[nodiscard]] std::uint64_t fnv1a(const void* bytes, std::size_t n,
                                  std::uint64_t h = 0xcbf29ce484222325ULL);

}  // namespace perfbench
