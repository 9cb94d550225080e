// perfbench_runner: runs one workload of the repository benchmark and prints
// its raw measurements as one JSON document on stdout.
//
// Usage: perfbench_runner <plan.json>
//
// The plan (written by run.py from the benchmark's seed) names a campaign
// spec file. A pass expands the spec through the exp API, then builds, sets
// up, runs, finishes and verifies every point one after another on this
// thread, and renders the spec's aggregates with the agg renderers: the
// calls hicsim_campaign makes, timed one by one. Passes repeat until the
// plan's time budget is spent, and there are always at least two, so every
// point runs twice in one invocation and run.py can compare its simulated
// stats between the runs.
//
// Before each point and after the last one, the runner times a fixed
// reference loop (reference_loop below), so run.py can express every host
// time at one reference host speed.
//
// A traced invocation runs one untraced and one traced pass. The traced
// pass keeps a span around each of those calls in memory; the host-cost
// probes (probes.hpp) follow, each in a span of its own, and the spans are
// written at the end as Chrome trace-event JSON.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "apps/workload.hpp"
#include "common/config_json.hpp"
#include "exp/aggregator.hpp"
#include "exp/campaign.hpp"
#include "exp/runner.hpp"
#include "probes.hpp"
#include "runtime/machine.hpp"
#include "stats/agg.hpp"

namespace {

using namespace hic;
using Clock = std::chrono::steady_clock;

double seconds(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Spans of the traced pass, kept in memory until the run ends.
class SpanLog {
 public:
  static constexpr int kNoPoint = -1;

  void set_recording(bool on) { recording_ = on; }

  void add(const std::string& name, int point, Clock::time_point t0,
           Clock::time_point t1) {
    if (recording_) spans_.push_back({name, point, t0, t1});
  }

  /// Runs `fn` and returns its host seconds, recording a span if tracing.
  template <typename Fn>
  double time(const char* name, int point, Fn&& fn) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    add(name, point, t0, t1);
    return seconds(t0, t1);
  }

  /// Chrome trace-event JSON: one complete ("X") event per span, times in
  /// microseconds from the first span, the point id in args.
  void write_chrome(const std::string& path) const {
    Json events = Json::array();
    const Clock::time_point origin =
        spans_.empty() ? Clock::now() : spans_.front().t0;
    for (const Span& s : spans_) {
      Json e = Json::object();
      e.set("name", Json::string(s.name));
      e.set("cat", Json::string(s.name.substr(0, s.name.find('.'))));
      e.set("ph", Json::string("X"));
      e.set("pid", Json::integer(1));
      e.set("tid", Json::integer(1));
      e.set("ts", Json::number(seconds(origin, s.t0) * 1e6));
      e.set("dur", Json::number(seconds(s.t0, s.t1) * 1e6));
      Json args = Json::object();
      args.set("point", Json::integer(s.point));
      e.set("args", std::move(args));
      events.push_back(std::move(e));
    }
    Json doc = Json::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", Json::string("ns"));
    std::ofstream os(path, std::ios::binary);
    HIC_CHECK_MSG(os.good(), "cannot write trace '" << path << "'");
    os << doc.dump() << '\n';
  }

 private:
  struct Span {
    std::string name;
    int point;
    Clock::time_point t0;
    Clock::time_point t1;
  };
  bool recording_ = false;
  std::vector<Span> spans_;
};

/// The simulated part of a point's interchange JSON: point_to_json without
/// its schema versions and machine-config digest, which label the result
/// rather than measure it.
std::string sim_text(const agg::PointStats& p) {
  const Json full = agg::point_to_json(p);
  Json j = Json::object();
  for (const auto& [key, value] : full.members())
    if (key != "point_schema" && key != "stats_schema" && key != "machine")
      j.set(key, value);
  return j.dump();
}

/// The process's RSS high-water mark (VmHWM). Unlike getrusage's
/// ru_maxrss it starts afresh at exec, so it does not include the RSS of the
/// process that spawned this one.
double peak_rss_mb() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  HIC_CHECK_MSG(false, "no VmHWM in /proc/self/status");
  return 0;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Iterations of reference_loop(): about 4 ms on a 4-vCPU Xeon VM.
constexpr std::uint64_t kReferenceIters = 150000;
/// reference_loop()'s tables: a 2048-set, 8-way tag and LRU-stamp array
/// and 4 MB of words to load on a miss.
constexpr std::size_t kRefSets = 2048, kRefWays = 8, kRefMemWords = 1 << 20;
/// The tables stay resident for the whole run, so they are taken out of the
/// RSS the runner reports.
constexpr double kReferenceMb =
    (2 * kRefSets * kRefWays * sizeof(std::uint64_t) +
     kRefMemWords * sizeof(std::uint32_t)) /
    (1024.0 * 1024.0);

/// reference_loop()'s tables, built once.
struct ReferenceTables {
  std::vector<std::uint64_t> tags =
      std::vector<std::uint64_t>(kRefSets * kRefWays);
  std::vector<std::uint64_t> stamps =
      std::vector<std::uint64_t>(kRefSets * kRefWays);
  std::vector<std::uint32_t> mem = [] {
    std::vector<std::uint32_t> m(kRefMemWords);
    for (std::size_t i = 0; i < m.size(); ++i)
      m[i] = static_cast<std::uint32_t>(i * 2654435761u);
    return m;
  }();
};

/// A fixed reference loop that gauges the host's current speed: a small
/// set-associative cache model (tag compares, LRU victim choice, loads from
/// 4 MB on a miss) driven by a pseudo-random address stream. It is host work
/// of the simulator's kind but uses nothing from src/, so a change to the
/// simulator never moves its time, while a shared host that slows the
/// simulator slows it too.
std::uint64_t reference_loop(ReferenceTables& rt) {
  std::fill(rt.tags.begin(), rt.tags.end(), ~0ULL);
  std::fill(rt.stamps.begin(), rt.stamps.end(), 0);
  std::uint64_t x = 0x9E3779B97F4A7C15ULL, sum = 0;
  for (std::uint64_t t = 1; t <= kReferenceIters; ++t) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    // Three accesses in four walk forward; the fourth jumps anywhere.
    const std::uint64_t line = (x & 3) != 0 ? (t >> 2) + (x >> 60) : x >> 40;
    std::uint64_t* tag = &rt.tags[(line % kRefSets) * kRefWays];
    std::uint64_t* stamp = &rt.stamps[(line % kRefSets) * kRefWays];
    std::size_t way = kRefWays, victim = 0;
    for (std::size_t w = 0; w < kRefWays; ++w) {
      if (tag[w] == line) {
        way = w;
        break;
      }
      if (stamp[w] < stamp[victim]) victim = w;
    }
    if (way == kRefWays) {
      way = victim;
      tag[way] = line;
      sum += rt.mem[(line * 2654435761u) % kRefMemWords];
    }
    stamp[way] = t;
    sum += way;
  }
  return sum;
}

/// Host seconds of one reference_loop(). The tables are read once first,
/// untimed, so the loop starts with them as cached as the host allows
/// rather than as the point before left them: a point that evicts more of
/// the host caches must not make the host look slower.
double reference_s() {
  static ReferenceTables rt;
  static volatile std::uint64_t sink = 0;
  std::uint64_t touched = 0;
  for (std::uint64_t v : rt.tags) touched += v;
  for (std::uint64_t v : rt.stamps) touched += v;
  for (std::uint32_t v : rt.mem) touched += v;
  sink = sink + touched;
  const auto t0 = Clock::now();
  sink = sink + reference_loop(rt);
  return seconds(t0, Clock::now());
}

struct PointRun {
  double build_s = 0, setup_s = 0, run_s = 0, finish_s = 0, verify_s = 0;
  double point_s = 0;
  std::string error;  ///< empty when the point succeeded
  std::string sim;    ///< sim_text(), empty when the point threw
  std::optional<agg::PointStats> stats;
};

/// One point, phase by phase, as exp::execute_point runs it.
PointRun run_point(const exp::CampaignPoint& pt, int id, SpanLog& log) {
  PointRun r;
  const auto t0 = Clock::now();
  try {
    HIC_CHECK_MSG(pt.inject.empty() && !pt.recover,
                  "benchmark points run without faults or recovery");
    std::unique_ptr<Workload> w = make_workload(pt.app);
    for (const auto& [key, value] : pt.serve_set)
      HIC_CHECK_MSG(w->set_knob(key, value),
                    pt.app << " rejected knob " << key << "=" << value);
    std::unique_ptr<Machine> m;
    r.build_s = log.time("runtime.build", id, [&] {
      m = std::make_unique<Machine>(pt.machine, pt.config);
    });
    r.setup_s =
        log.time("apps.setup", id, [&] { w->setup(*m, pt.threads); });
    r.run_s = log.time("runtime.run", id, [&] {
      m->run(pt.threads, [&w](Thread& t) { w->body(t); });
    });
    r.finish_s = log.time("apps.finish", id, [&] { w->finish(*m); });
    // Counters are captured before verify: its reads go through the
    // hierarchy and would add traffic the figures do not count.
    agg::PointStats p = agg::point_from_stats(pt.app, pt.config_label,
                                              pt.threads, m->stats());
    p.declared_main = w->main_patterns();
    p.declared_other = w->other_patterns();
    p.machine = config_digest(pt.machine);
    WorkloadResult verdict;
    r.verify_s =
        log.time("apps.verify", id, [&] { verdict = w->verify(*m); });
    p.verified = verdict.ok;
    r.sim = sim_text(p);
    r.stats = std::move(p);
    if (!verdict.ok) r.error = "verification failed: " + verdict.detail;
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  const auto t1 = Clock::now();
  log.add("exp.point", id, t0, t1);
  r.point_s = seconds(t0, t1);
  return r;
}

struct PassRun {
  bool traced = false;
  std::vector<std::size_t> order;  ///< point indices in the order they ran
  double wall_s = 0;     ///< the pass without its reference loops
  double expand_s = 0, aggregate_s = 0;
  /// reference_s() before each point and after the last, in run order.
  std::vector<double> ref_s;
  /// Process high-water mark when the pass ended, without the reference
  /// loop's tables.
  double peak_rss_mb = 0;
  exp::Campaign campaign;
  std::vector<PointRun> points;
  std::vector<exp::AggregateOutput> aggregates;
  std::string aggregate_error;
};

/// The order pass number `pass` runs `n` points in: the campaign's order in
/// the first pass, a fixed shuffle of it in every later one. The campaign
/// lists an app's points together, so in campaign order a slow stretch of
/// the host hits all of them at once; shuffled, each point of an app meets
/// other stretches in other passes.
std::vector<std::size_t> run_order(std::size_t n, std::size_t pass) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::uint64_t state = pass;
  for (std::size_t i = n; pass > 0 && i > 1; --i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    std::swap(order[i - 1], order[(state >> 33) % i]);
  }
  return order;
}

/// Pass number `pass` over every point, in run_order().
PassRun run_pass(const std::string& spec, std::size_t pass_no, SpanLog& log) {
  PassRun pass;
  const auto t0 = Clock::now();
  pass.expand_s = log.time("exp.expand", SpanLog::kNoPoint,
                           [&] { pass.campaign = exp::Campaign::load(spec); });
  const auto& pts = pass.campaign.points;
  exp::CampaignResults results;
  results.by_point.resize(pts.size());
  pass.points.resize(pts.size());
  pass.order = run_order(pts.size(), pass_no);
  for (std::size_t i : pass.order) {
    pass.ref_s.push_back(reference_s());
    pass.points[i] = run_point(pts[i], static_cast<int>(i), log);
    results.by_point[i] = pass.points[i].stats;
  }
  pass.ref_s.push_back(reference_s());
  pass.aggregate_s = log.time("exp.aggregate", SpanLog::kNoPoint, [&] {
    try {
      pass.aggregates = exp::aggregate_campaign(pass.campaign, results, true);
    } catch (const std::exception& e) {
      pass.aggregate_error = e.what();
    }
  });
  pass.wall_s = seconds(t0, Clock::now());
  for (double r : pass.ref_s) pass.wall_s -= r;
  pass.peak_rss_mb = peak_rss_mb() - kReferenceMb;
  return pass;
}

Json pass_json(const PassRun& pass) {
  Json j = Json::object();
  j.set("traced", Json::boolean(pass.traced));
  Json order = Json::array();
  for (std::size_t i : pass.order)
    order.push_back(Json::integer(static_cast<std::int64_t>(i)));
  j.set("order", std::move(order));
  Json refs = Json::array();
  for (double r : pass.ref_s) refs.push_back(Json::number(r));
  j.set("ref_s", std::move(refs));
  j.set("wall_s", Json::number(pass.wall_s));
  j.set("expand_s", Json::number(pass.expand_s));
  j.set("aggregate_s", Json::number(pass.aggregate_s));
  j.set("peak_rss_mb", Json::number(pass.peak_rss_mb));
  j.set("aggregate_error", Json::string(pass.aggregate_error));
  std::uint64_t digest = perfbench::fnv1a(nullptr, 0);
  Json points = Json::array();
  for (std::size_t i = 0; i < pass.points.size(); ++i) {
    const PointRun& r = pass.points[i];
    const exp::CampaignPoint& pt = pass.campaign.points[i];
    digest = perfbench::fnv1a(r.sim.data(), r.sim.size(), digest);
    Json p = Json::object();
    p.set("group", Json::string(pt.group));
    p.set("app", Json::string(pt.app));
    p.set("config", Json::string(pt.config_label));
    p.set("build_s", Json::number(r.build_s));
    p.set("setup_s", Json::number(r.setup_s));
    p.set("run_s", Json::number(r.run_s));
    p.set("finish_s", Json::number(r.finish_s));
    p.set("verify_s", Json::number(r.verify_s));
    p.set("point_s", Json::number(r.point_s));
    p.set("error", Json::string(r.error));
    p.set("sim_hash",
          Json::string(hex64(perfbench::fnv1a(r.sim.data(), r.sim.size()))));
    points.push_back(std::move(p));
  }
  j.set("sim_digest", Json::string(hex64(digest)));
  j.set("points", std::move(points));
  return j;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  HIC_CHECK_MSG(is.good(), "cannot open '" << path << "'");
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

Json build_info() {
  Json b = Json::object();
#if defined(__clang__)
  b.set("compiler", Json::string(std::string("clang ") + __clang_version__));
#elif defined(__GNUC__)
  b.set("compiler", Json::string(std::string("gcc ") + __VERSION__));
#else
  b.set("compiler", Json::string("unknown"));
#endif
#if defined(__OPTIMIZE__)
  b.set("optimized", Json::boolean(true));
#else
  b.set("optimized", Json::boolean(false));
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  b.set("sanitized", Json::boolean(true));
#else
  b.set("sanitized", Json::boolean(false));
#endif
  return b;
}

int run(const Json& plan) {
  const std::string spec = plan.at("spec").as_string();
  const double budget_s = plan.at("seconds").as_double();
  const std::string trace_out = plan.at("trace_out").as_string();
  const bool traced = !trace_out.empty();

  SpanLog log;
  std::vector<PassRun> passes;
  reference_s();  // warm-up: fills the loop's tables before any sample
  const auto start = Clock::now();
  for (;;) {
    const bool record = traced && passes.size() == 1;
    log.set_recording(record);
    passes.push_back(run_pass(spec, passes.size(), log));
    passes.back().traced = record;
    log.set_recording(false);
    if (passes.size() < 2) continue;
    if (traced) break;
    // Start another pass only if it should end within the budget.
    std::vector<double> walls;
    for (const PassRun& p : passes) {
      walls.push_back(p.wall_s);
      for (double r : p.ref_s) walls.back() += r;
    }
    std::nth_element(walls.begin(), walls.begin() + walls.size() / 2,
                     walls.end());
    if (seconds(start, Clock::now()) + walls[walls.size() / 2] > budget_s)
      break;
  }

  Json out = Json::object();
  out.set("build", build_info());
  Json pass_list = Json::array();
  for (const PassRun& p : passes) pass_list.push_back(pass_json(p));
  out.set("passes", std::move(pass_list));
  // Simulated counters and aggregates are identical in every pass whose
  // points match; run.py checks that from the per-pass hashes.
  Json stats = Json::array();
  for (const PointRun& r : passes.front().points)
    stats.push_back(r.stats.has_value() ? agg::point_to_json(*r.stats)
                                        : Json::null());
  out.set("stats", std::move(stats));
  Json aggs = Json::array();
  for (const exp::AggregateOutput& a : passes.front().aggregates) {
    Json j = Json::object();
    j.set("kind", Json::string(a.kind));
    j.set("group", Json::string(a.group));
    j.set("text", Json::string(a.text));
    aggs.push_back(std::move(j));
  }
  out.set("aggregates", std::move(aggs));

  if (traced) {
    log.set_recording(true);
    Clock::time_point probe_t0;
    Json probes = Json::object();
    for (const perfbench::ProbeResult& p : perfbench::run_probes(
             true, [&](const std::string& name, bool begin) {
               if (begin) {
                 probe_t0 = Clock::now();
               } else {
                 log.add("probe." + name, SpanLog::kNoPoint, probe_t0,
                         Clock::now());
               }
             }))
      probes.set(p.name, Json::number(p.ns));
    out.set("probes", std::move(probes));
    log.write_chrome(trace_out);
  }

  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_runner <plan.json>\n");
    return 2;
  }
  try {
    return run(Json::parse(read_file(argv[1])));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }
}
