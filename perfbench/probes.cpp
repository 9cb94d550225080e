#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <memory>

#include "core/incoherent.hpp"
#include "fault/fault_plan.hpp"
#include "hierarchy/mesi.hpp"
#include "runtime/config.hpp"
#include "sim/engine.hpp"
#include "stats/report.hpp"
#include "sync/sync_controller.hpp"
#include "verify/oracle.hpp"

namespace perfbench {

std::uint64_t fnv1a(const void* bytes, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(bytes);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

using namespace hic;
using Clock = std::chrono::steady_clock;

constexpr int kReps = 1001;     ///< samples per probe (odd: exact median)
constexpr int kBatch = 256;     ///< calls per sample for L1-hit probes
constexpr int kLines = 8;       ///< resident set of the L1-hit probes
constexpr int kRangeLines = 32; ///< lines per ranged WB/INV
constexpr int kAllLines = 16;   ///< dirty/valid lines before a WB/INV ALL
constexpr Addr kLine = 64;

/// Per-call host ns samples; records nothing when untimed.
class Sampler {
 public:
  Sampler(bool timed, double clock_ns) : timed_(timed), clock_ns_(clock_ns) {}

  /// Runs `fn`, which performs `calls` probed calls, as one sample.
  template <typename Fn>
  void sample(int calls, Fn&& fn) {
    if (!timed_) {
      fn();
      return;
    }
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
    samples_.push_back((ns - clock_ns_) / calls);
  }

  [[nodiscard]] double median() {
    if (samples_.empty()) return 0;
    const auto mid = samples_.begin() + static_cast<long>(samples_.size() / 2);
    std::nth_element(samples_.begin(), mid, samples_.end());
    return *mid;
  }

 private:
  bool timed_;
  double clock_ns_;  ///< cost of the two clock reads, subtracted per sample
  std::vector<double> samples_;
};

/// Folds simulated outcomes into a fingerprint.
struct Fingerprint {
  std::uint64_t h = fnv1a(nullptr, 0);
  void add(std::uint64_t v) { h = fnv1a(&v, sizeof v, h); }
  void add(const std::string& s) { h = fnv1a(s.data(), s.size(), h); }
};

/// One hierarchy with its memory and counters, as Machine assembles it.
struct Fixture {
  MachineConfig mc;
  GlobalMemory gmem;
  SimStats stats;
  std::unique_ptr<HierarchyBase> h;

  Fixture(const MachineConfig& m, Config cfg)
      : mc(m), stats(m.total_cores()) {
    mc.validate();
    if (is_coherent(cfg)) {
      h = std::make_unique<MesiHierarchy>(mc, gmem, stats);
    } else {
      h = std::make_unique<IncoherentHierarchy>(mc, gmem, stats,
                                                buffer_options(cfg));
    }
  }
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;

  Addr lines(int n) { return gmem.alloc(static_cast<Addr>(n) * kLine, "probe"); }
  void fold(Fingerprint& fp) const { fp.add(to_json(stats)); }
};

MachineConfig intra(bool staleness_monitor = false) {
  MachineConfig mc = MachineConfig::intra_block();
  mc.staleness_monitor = staleness_monitor;
  return mc;
}

MachineConfig inter() {
  MachineConfig mc = MachineConfig::inter_block();
  mc.staleness_monitor = false;
  return mc;
}

/// What an L1-hit probe attaches to the hierarchy.
struct HitSetup {
  Config cfg = Config::Base;
  bool write = false;
  bool staleness_monitor = false;
  bool fault_plan = false;  ///< an empty FaultPlan, as Machine attaches
  bool oracle = false;
};

/// Median ns per L1-hit load (or store) by core 0 over a resident set.
double l1_hits(Sampler s, Fingerprint& fp, const HitSetup& setup) {
  // Declared before the fixture, so they outlive the hierarchy that points
  // at them.
  FaultPlan plan;
  CoherenceOracle oracle;
  Fixture f(intra(setup.staleness_monitor), setup.cfg);
  if (setup.fault_plan) f.h->set_fault_plan(&plan);
  if (setup.oracle) {
    oracle.bind(f.mc, &f.stats, nullptr, f.h->coherent());
    f.h->set_oracle(&oracle);
  }
  const Addr base = f.lines(kLines);
  std::uint64_t v = 1;
  for (int l = 0; l < kLines; ++l) f.h->write(0, base + l * kLine, 8, &v);
  Cycle lat = 0;
  for (int r = 0; r < kReps; ++r) {
    s.sample(kBatch, [&] {
      for (int i = 0; i < kBatch; ++i) {
        const Addr a = base + (i % kLines) * kLine + (i / kLines % 8) * 8;
        lat += setup.write ? f.h->write(0, a, 8, &v).latency
                           : f.h->read(0, a, 8, &v).latency;
      }
    });
  }
  fp.add(lat);
  f.fold(fp);
  return s.median();
}

/// Median ns of one read by core 0 of a line that `place` (untimed) left
/// at the level under test.
template <typename Place>
double one_read(Sampler s, Fingerprint& fp, Fixture& f, Place&& place) {
  Cycle lat = 0;
  std::uint64_t v = 0;
  for (int r = 0; r < kReps; ++r) {
    const Addr a = place(r);
    s.sample(1, [&] { lat += f.h->read(0, a, 8, &v).latency; });
  }
  fp.add(lat);
  f.fold(fp);
  return s.median();
}

double read_l2(Sampler s, Fingerprint& fp) {
  Fixture f(intra(), Config::Base);
  const Addr x = f.lines(1);
  std::uint64_t v = 0;
  f.h->read(0, x, 8, &v);
  return one_read(s, fp, f, [&](int) {
    f.h->inv_range(0, {x, kLine}, Level::L1);
    return x;
  });
}

double read_l3(Sampler s, Fingerprint& fp) {
  Fixture f(inter(), Config::InterBase);
  const Addr x = f.lines(1);
  std::uint64_t v = 0;
  f.h->read(0, x, 8, &v);
  return one_read(s, fp, f, [&](int) {
    f.h->inv_range(0, {x, kLine}, Level::L2);
    return x;
  });
}

double read_dram(Sampler s, Fingerprint& fp) {
  Fixture f(inter(), Config::InterBase);
  const Addr base = f.lines(kReps);
  return one_read(s, fp, f, [&](int r) { return base + r * kLine; });
}

/// Median ns of one coherence operation `op` after `prep` (untimed) left
/// the L1 in the state the operation works on; `per` calls per sample.
template <typename Prep, typename Op>
double one_op(Sampler s, Fingerprint& fp, Fixture& f, int per, Prep&& prep,
              Op&& op) {
  Cycle cy = 0;
  for (int r = 0; r < kReps; ++r) {
    prep();
    s.sample(per, [&] { cy += op(); });
  }
  fp.add(cy);
  f.fold(fp);
  return s.median();
}

void touch(Fixture& f, Addr base, int n, bool write) {
  std::uint64_t v = 3;
  for (int l = 0; l < n; ++l) {
    if (write) {
      f.h->write(0, base + l * kLine, 8, &v);
    } else {
      f.h->read(0, base + l * kLine, 8, &v);
    }
  }
}

double wb_range_line(Sampler s, Fingerprint& fp) {
  Fixture f(intra(), Config::Base);
  const Addr base = f.lines(kRangeLines);
  return one_op(
      s, fp, f, kRangeLines, [&] { touch(f, base, kRangeLines, true); },
      [&] { return f.h->wb_range(0, {base, kRangeLines * kLine}, Level::L2); });
}

double inv_range_line(Sampler s, Fingerprint& fp) {
  Fixture f(intra(), Config::Base);
  const Addr base = f.lines(kRangeLines);
  return one_op(
      s, fp, f, kRangeLines, [&] { touch(f, base, kRangeLines, false); },
      [&] { return f.h->inv_range(0, {base, kRangeLines * kLine}, Level::L1); });
}

double wb_all(Sampler s, Fingerprint& fp) {
  Fixture f(intra(), Config::Base);
  const Addr base = f.lines(kAllLines);
  return one_op(
      s, fp, f, 1, [&] { touch(f, base, kAllLines, true); },
      [&] { return f.h->wb_all(0, Level::L2); });
}

double inv_all(Sampler s, Fingerprint& fp) {
  Fixture f(intra(), Config::Base);
  const Addr base = f.lines(kAllLines);
  return one_op(
      s, fp, f, 1, [&] { touch(f, base, kAllLines, false); },
      [&] { return f.h->inv_all(0, Level::L1); });
}

/// One critical-section epoch under B+M+I: enter, write 4 lines, read 4
/// others, exit (the MEB-directed WB and IEB-guarded reads).
double cs_epoch(Sampler s, Fingerprint& fp) {
  Fixture f(intra(), Config::BaseMebIeb);
  const Addr base = f.lines(8);
  return one_op(
      s, fp, f, 1, [] {},
      [&] {
        std::uint64_t v = 5;
        Cycle c = f.h->cs_enter(0);
        for (int l = 0; l < 4; ++l) c += f.h->write(0, base + l * kLine, 8, &v).latency;
        for (int l = 4; l < 8; ++l) c += f.h->read(0, base + l * kLine, 8, &v).latency;
        return c + f.h->cs_exit(0);
      });
}

/// MESI read of a line another core holds Modified: the owner forwards.
double mesi_read_fwd(Sampler s, Fingerprint& fp) {
  Fixture f(intra(), Config::Hcc);
  const Addr x = f.lines(1);
  return one_read(s, fp, f, [&](int r) {
    const std::uint64_t v = static_cast<std::uint64_t>(r);
    f.h->write(1, x, 8, &v);
    return x;
  });
}

/// Runs `cores` engine bodies on an intra-block machine and returns the
/// median ns per `per_run` unit of engine work (each run is one sample).
template <typename Body>
double engine_probe(Sampler s, Fingerprint& fp, int cores, double per_run,
                    Body&& body) {
  constexpr int kRuns = 15;
  for (int r = 0; r < kRuns; ++r) {
    Fixture f(intra(), Config::Base);
    SyncController sync(f.mc.total_cores());
    const NodeId home = f.h->topology().l2_bank_node(0, 0);
    const SyncId lock = sync.declare_lock(home);
    const SyncId bar = sync.declare_barrier(cores, home);
    Engine eng(*f.h, sync, f.mc.sim_slack_cycles);
    std::vector<Engine::CoreBody> bodies;
    for (int c = 0; c < cores; ++c) {
      f.h->map_thread(c, c);
      bodies.push_back([&](CoreServices& svc) { body(svc, lock, bar, f.mc); });
    }
    s.sample(1, [&] { eng.run(std::move(bodies)); });
    fp.add(eng.finish_time());
    f.fold(fp);
  }
  return s.median() / per_run;
}

constexpr int kEngineIters = 4096;

double quantum_switch(Sampler s, Fingerprint& fp) {
  // Each compute runs past the slack, so every call yields to the other core.
  return engine_probe(s, fp, 2, 2.0 * kEngineIters,
                      [](CoreServices& svc, SyncId, SyncId,
                         const MachineConfig& mc) {
                        for (int i = 0; i < kEngineIters; ++i)
                          svc.compute(mc.sim_slack_cycles + 1);
                      });
}

double lock_round_trip(Sampler s, Fingerprint& fp) {
  return engine_probe(s, fp, 1, kEngineIters,
                      [](CoreServices& svc, SyncId lock, SyncId,
                         const MachineConfig&) {
                        for (int i = 0; i < kEngineIters; ++i) {
                          svc.lock(lock);
                          svc.unlock(lock);
                        }
                      });
}

double barrier_episode(Sampler s, Fingerprint& fp) {
  return engine_probe(s, fp, 4, kEngineIters,
                      [](CoreServices& svc, SyncId, SyncId bar,
                         const MachineConfig&) {
                        for (int i = 0; i < kEngineIters; ++i) svc.barrier(bar);
                      });
}

double clock_overhead_ns() {
  std::vector<double> v;
  for (int i = 0; i < kReps; ++i) {
    const auto t0 = Clock::now();
    const auto t1 = Clock::now();
    v.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count());
  }
  std::nth_element(v.begin(), v.begin() + kReps / 2, v.end());
  return v[kReps / 2];
}

}  // namespace

std::vector<ProbeResult> run_probes(bool timed, const ProbeHook& on_probe) {
  const Sampler s(timed, timed ? clock_overhead_ns() : 0.0);
  std::vector<ProbeResult> out;
  auto probe = [&](const std::string& name, auto&& fn) {
    if (on_probe) on_probe(name, true);
    Fingerprint fp;
    const double ns = fn(fp);
    if (on_probe) on_probe(name, false);
    out.push_back({name, ns, fp.h});
  };
  auto hits = [&](HitSetup setup) {
    return [setup, &s](Fingerprint& fp) { return l1_hits(s, fp, setup); };
  };
  // A hook's cost is the same L1-hit loop with the hook attached minus
  // without; both loops fold into the one fingerprint.
  auto hook_cost = [&](HitSetup off, HitSetup on) {
    return [off, on, &s](Fingerprint& fp) {
      const double with = l1_hits(s, fp, on);
      return with - l1_hits(s, fp, off);
    };
  };
  auto plain = [&](double (*fn)(Sampler, Fingerprint&)) {
    return [fn, &s](Fingerprint& fp) { return fn(s, fp); };
  };

  HitSetup rd;
  HitSetup wr;
  wr.write = true;
  HitSetup rd_monitor = rd;
  rd_monitor.staleness_monitor = true;
  HitSetup wr_plan = wr;
  wr_plan.fault_plan = true;
  HitSetup rd_oracle = rd;
  rd_oracle.oracle = true;
  HitSetup wr_oracle = wr;
  wr_oracle.oracle = true;
  HitSetup mesi_rd;
  mesi_rd.cfg = Config::Hcc;

  probe("core.read_hit_ns", hits(rd));
  probe("core.write_hit_ns", hits(wr));
  probe("mem.stale_check_ns", hook_cost(rd, rd_monitor));
  probe("fault.store_hook_ns", hook_cost(wr, wr_plan));
  probe("verify.read_hook_ns", hook_cost(rd, rd_oracle));
  probe("verify.write_hook_ns", hook_cost(wr, wr_oracle));
  probe("core.read_l2_ns", plain(read_l2));
  probe("core.read_l3_ns", plain(read_l3));
  probe("core.read_dram_ns", plain(read_dram));
  probe("core.wb_range_line_ns", plain(wb_range_line));
  probe("core.inv_range_line_ns", plain(inv_range_line));
  probe("core.wb_all_ns", plain(wb_all));
  probe("core.inv_all_ns", plain(inv_all));
  probe("core.cs_epoch_ns", plain(cs_epoch));
  probe("hierarchy.read_hit_ns", hits(mesi_rd));
  probe("hierarchy.read_fwd_ns", plain(mesi_read_fwd));
  probe("sim.switch_ns", plain(quantum_switch));
  probe("sync.lock_rt_ns", plain(lock_round_trip));
  probe("sync.barrier_ns", plain(barrier_episode));
  return out;
}

}  // namespace perfbench
