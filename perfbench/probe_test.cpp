// Checks that timing a probe leaves its simulated outcome unchanged: every
// probe run with its timer gives the same fingerprint as the same probe run
// untimed. Exits 0 when all match, 1 otherwise.
#include <cstdio>

#include "probes.hpp"

int main() {
  const auto timed = perfbench::run_probes(true);
  const auto untimed = perfbench::run_probes(false);
  int bad = 0;
  if (timed.size() != untimed.size() || timed.empty()) {
    std::printf("FAIL: %zu timed probes vs %zu untimed\n", timed.size(),
                untimed.size());
    return 1;
  }
  for (std::size_t i = 0; i < timed.size(); ++i) {
    const bool same = timed[i].name == untimed[i].name &&
                      timed[i].fingerprint == untimed[i].fingerprint;
    std::printf("%s %-24s %016llx %016llx %.1f ns\n", same ? "ok  " : "FAIL",
                timed[i].name.c_str(),
                static_cast<unsigned long long>(timed[i].fingerprint),
                static_cast<unsigned long long>(untimed[i].fingerprint),
                timed[i].ns);
    if (!same) ++bad;
  }
  return bad == 0 ? 0 : 1;
}
