// perfbench: host cost and simulated outcome of one benchmark workload.
//
// Drives libcolibri's public API from outside, in one process on one
// thread, on the sequential engine. Each simulation constructs an
// arch::System, runs a wgen preset on it with wgen::runKernel and tears it
// down, timing each of the three calls, and prints one JSON line with the
// timings, the engine/frame-pool counts and the simulated outcome.
// perfbench/run.py builds this program, cross-checks it against
// colibri-sim and reduces the lines to the benchmark's metrics.
//
//   perfbench --fingerprint
//   perfbench --describe WORKLOAD
//   perfbench --workload WORKLOAD --seed N --seconds S
//   perfbench --workload WORKLOAD --seed N --traced
//
// --seconds runs untraced simulations back to back (closed loop) until S
// host seconds have passed, at least three. --traced runs one simulation
// with an obs::Recorder attached (registry plus span tracer sampling every
// kTraceEvery-th op per core) and reduces the spans in memory once the run
// ends. Both modes also time a fixed reference kernel, on the same CPU,
// before and after each simulation (ref_s): the host's current speed.
// Every mode ends with a {"kind":"process",...} line carrying the peak RSS.
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <optional>
#include <queue>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <x86intrin.h>
#endif

#include "arch/system.hpp"
#include "model/energy.hpp"
#include "obs/recorder.hpp"
#include "sim/framepool.hpp"
#include "sim/stats.hpp"
#include "wgen/kernel.hpp"
#include "wgen/presets.hpp"

namespace {

using namespace colibri;
using Clock = std::chrono::steady_clock;

struct Workload {
  const char* name;
  arch::AdapterKind adapter;
  const char* adapterFlag;  // colibri-sim --adapter value
  const char* preset;
  std::uint32_t cores;
  sim::Cycle warmup;
  sim::Cycle measure;
};

// Default geometry (4 cores/tile, 16 tiles/group, 16 banks/tile) at the
// given core count. Window lengths are sized so one simulation takes
// roughly a host second and the seed-to-seed spread of the simulated
// metrics stays a few percent (see README.md).
constexpr Workload kWorkloads[] = {
    {"lrsc_zipf_1k", arch::AdapterKind::kLrscSingle, "lrsc_single",
     "zipf_hot", 1024, 5000, 2000000},
    {"colibri_zipf_1k", arch::AdapterKind::kColibri, "colibri", "zipf_hot",
     1024, 5000, 1000000},
    {"table_rw_4k", arch::AdapterKind::kLrscTable, "lrsc_table",
     "readers_writers", 4096, 20000, 100000},
};

// Span-tracer sampling of the traced run: every 16th op per core.
// obs.trace_bytes_per_op is defined at this rate.
constexpr std::uint32_t kTraceEvery = 16;

const Workload* findWorkload(std::string_view name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::string jsonEscape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += ' ';
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

/// Builds one flat JSON object; doubles keep all 17 significant digits so
/// run.py can compare simulated values bit for bit.
class Line {
 public:
  Line& num(const char* k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return raw(k, buf);
  }
  Line& num(const char* k, std::uint64_t v) {
    return raw(k, std::to_string(v));
  }
  Line& str(const char* k, std::string_view v) {
    std::string quoted = "\"";
    quoted += jsonEscape(v);
    quoted += '"';
    return raw(k, quoted);
  }
  Line& boolean(const char* k, bool v) { return raw(k, v ? "true" : "false"); }
  Line& obj(const char* k, const Line& inner) { return raw(k, inner.text()); }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }
  void print() const { std::printf("%s\n", text().c_str()); }

 private:
  Line& raw(const char* k, const std::string& v) {
    if (!body_.empty()) {
      body_ += ", ";
    }
    body_ += "\"";
    body_ += k;
    body_ += "\": ";
    body_ += v;
    return *this;
  }
  std::string body_;
};

arch::SystemConfig configFor(const Workload& w, std::uint64_t seed) {
  arch::SystemConfig cfg;  // default geometry, sequential engine
  cfg.numCores = w.cores;
  cfg.adapter = w.adapter;
  cfg.seed = seed;
  return cfg;
}

wgen::WgenParams paramsFor(const Workload& w) {
  wgen::WgenParams p;
  p.kernel = wgen::findPreset(w.preset)->spec;
  p.window.warmup = w.warmup;
  p.window.measure = w.measure;
  return p;
}

/// The simulated outcome of one run: exact for a given seed.
Line outcome(const wgen::WgenResult& r) {
  const auto& c = r.rate.counters;
  Line counters;
  counters.num("instructions", c.instructions)
      .num("computeCycles", c.computeCycles)
      .num("sleepCycles", c.sleepCycles)
      .num("stallCycles", c.stallCycles)
      .num("bankAccesses", c.bankAccesses)
      .num("netLocalTile", c.netMessages[0])
      .num("netSameGroup", c.netMessages[1])
      .num("netRemoteGroup", c.netMessages[2])
      .num("windowCycles", static_cast<std::uint64_t>(c.windowCycles))
      .num("activeCores", static_cast<std::uint64_t>(c.activeCores));
  Line out;
  out.num("ops_per_cycle", r.rate.opsPerCycle)
      .num("lat_p50_cycles", r.opLatency.p50)
      .num("lat_p99_cycles", r.opLatency.p99)
      .num("energy_pj_per_op",
           model::energyPerOp(c, r.rate.opsInWindow))
      .num("jain_fairness", r.rate.fairnessJain)
      .num("ops_in_window", r.rate.opsInWindow)
      .num("total_ops", r.totalOps)
      .num("total_increments", r.totalIncrements)
      .boolean("sum_verified", r.sumVerified)
      .obj("counters", counters);
  return out;
}

// --- Span reduction ---------------------------------------------------------

/// Receives the tracer's Chrome-trace JSON as it is written and reduces it
/// on the fly: counts the bytes and keeps the durations of the op lifecycle
/// spans (net.req, bank, net.resp) that start inside the measurement
/// window. The text itself is never stored.
/// Relies on the writer's layout of one member per line.
class SpanReducer : public std::streambuf {
 public:
  SpanReducer(sim::Cycle from, sim::Cycle to) : from_(from), to_(to) {}

  std::uint64_t bytes = 0;
  std::uint64_t opSpans = 0;  // one net.req child per traced op
  std::vector<double> netReq, bank, netResp;

 protected:
  int overflow(int c) override {
    if (c != traits_type::eof()) {
      put(static_cast<char>(c));
    }
    return c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) {
      put(s[i]);
    }
    return n;
  }

 private:
  void put(char c) {
    ++bytes;
    if (c == '\n') {
      line(line_);
      line_.clear();
    } else {
      line_.push_back(c);
    }
  }

  void line(std::string_view l) {
    while (!l.empty() && l.front() == ' ') {
      l.remove_prefix(1);
    }
    while (!l.empty() && (l.back() == ',' || l.back() == ' ')) {
      l.remove_suffix(1);
    }
    if (l.empty()) {
      return;
    }
    if (l.front() == '{') {
      if (++depth_ == 2) {
        ev_ = Event{};
      }
      return;
    }
    if (l.front() == '}') {
      if (depth_-- == 2) {
        finish();
      }
      return;
    }
    if (l.front() != '"') {
      return;  // array brackets
    }
    const auto close = l.find('"', 1);
    const std::string_view key = l.substr(1, close - 1);
    std::string_view val = l.substr(close + 1);
    while (!val.empty() && (val.front() == ':' || val.front() == ' ')) {
      val.remove_prefix(1);
    }
    if (val == "{") {
      ++depth_;
      return;
    }
    if (depth_ != 2) {
      return;
    }
    if (key == "name") {
      ev_.name = std::string(val.substr(1, val.size() - 2));
    } else if (key == "pid") {
      ev_.pid = std::strtoull(std::string(val).c_str(), nullptr, 10);
    } else if (key == "ts") {
      ev_.ts = std::strtoull(std::string(val).c_str(), nullptr, 10);
    } else if (key == "dur") {
      ev_.dur = std::strtoull(std::string(val).c_str(), nullptr, 10);
    }
  }

  void finish() {
    if (ev_.pid != 1) {
      return;
    }
    if (ev_.name == "net.req") {
      ++opSpans;
    }
    if (ev_.ts < from_ || ev_.ts >= to_) {
      return;
    }
    if (ev_.name == "net.req") {
      netReq.push_back(static_cast<double>(ev_.dur));
    } else if (ev_.name == "bank") {
      bank.push_back(static_cast<double>(ev_.dur));
    } else if (ev_.name == "net.resp") {
      netResp.push_back(static_cast<double>(ev_.dur));
    }
  }

  struct Event {
    std::string name;
    std::uint64_t pid = 0, ts = 0, dur = 0;
  };
  sim::Cycle from_, to_;
  std::string line_;
  int depth_ = 0;
  Event ev_;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// --- Simulations ------------------------------------------------------------

/// One untraced simulation: construct, run, tear down, each call timed.
Line untracedRun(const Workload& w, std::uint64_t seed) {
  Line rec;
  rec.str("kind", "sim");
  const auto cfg = configFor(w, seed);
  const auto params = paramsFor(w);
  const std::uint64_t heap0 = sim::framepool::heapFrameCount();
  std::optional<arch::System> sys;
  try {
    const auto t0 = Clock::now();
    sys.emplace(cfg);
    const auto t1 = Clock::now();
    const auto res = wgen::runKernel(*sys, params);
    const auto t2 = Clock::now();
    const std::uint64_t events = sys->engine().executedEvents();
    sys.reset();
    const auto t3 = Clock::now();
    rec.boolean("ok", true)
        .num("setup_s", seconds(t0, t1))
        .num("run_s", seconds(t1, t2))
        .num("teardown_s", seconds(t2, t3))
        .num("wall_s", seconds(t0, t3))
        .num("events", events)
        .num("heap_frames", sim::framepool::heapFrameCount() - heap0)
        .obj("outcome", outcome(res));
  } catch (const std::exception& e) {
    sys.reset();
    rec.boolean("ok", false).str("error", e.what());
  }
  return rec;
}

/// Registry values read by events the benchmark schedules before the run.
/// The window-start read fires at the warmup cycle ahead of runKernel's
/// own stats reset (it was scheduled first); the window-end read fires at
/// horizon + 1, after every event the window snapshot saw and before any
/// later one, so the two bracket exactly the measurement window. Between
/// them, 256 evenly spaced reads average the (instantaneous) bank backlog.
struct RegistryProbe {
  const obs::Registry* reg = nullptr;
  std::map<std::string, double> start, end;
  double backlogSum = 0;
  std::uint64_t backlogSamples = 0;
  std::uint64_t events = 0;  // events this probe scheduled

  [[nodiscard]] std::map<std::string, double> readAll() const {
    std::map<std::string, double> v;
    for (const auto& m : reg->metrics()) {
      if (m.kind == obs::MetricKind::kGauge) {
        v[m.name] = reg->gaugeValue(m.cell);
      } else if (m.kind == obs::MetricKind::kCounter) {
        v[m.name] = static_cast<double>(reg->counterTotal({m.cell}));
      }
    }
    return v;
  }

  void schedule(arch::System& sys, const workloads::MeasureWindow& win) {
    const auto& ms = reg->metrics();
    const auto backlog = std::find_if(ms.begin(), ms.end(), [](const auto& m) {
      return m.name == "bank.backlogMean";
    });
    COLIBRI_CHECK(backlog != ms.end());
    const std::uint32_t cell = backlog->cell;
    sys.at(win.warmup, [this] { start = readAll(); });
    ++events;
    const sim::Cycle step = std::max<sim::Cycle>(1, win.measure / 256);
    for (sim::Cycle t = win.warmup; t < win.horizon(); t += step) {
      sys.at(t, [this, cell] {
        backlogSum += reg->gaugeValue(cell);
        ++backlogSamples;
      });
      ++events;
    }
    sys.at(win.horizon() + 1, [this] { end = readAll(); });
    ++events;
  }
};

/// One simulation with an obs::Recorder attached: the registry plus the
/// span tracer at 1/kTraceEvery sampling.
Line tracedRun(const Workload& w, std::uint64_t seed) {
  Line rec;
  rec.str("kind", "traced");
  auto cfg = configFor(w, seed);
  const auto params = paramsFor(w);
  obs::Recorder recorder(obs::Recorder::Config{
      .sampleInterval = 0, .traceEnabled = true, .traceEvery = kTraceEvery});
  cfg.recorder = &recorder;
  RegistryProbe probe;  // outlives the System whose events point at it
  probe.reg = &recorder.registry();
  std::optional<arch::System> sys;
  try {
    const auto t0 = Clock::now();
    recorder.beginRun();
    sys.emplace(cfg);
    probe.schedule(*sys, params.window);
    const auto res = wgen::runKernel(*sys, params);
    const std::uint64_t events = sys->engine().executedEvents();
    recorder.finalize(sys->now());
    SpanReducer spans(params.window.warmup, params.window.horizon());
    {
      std::ostream os(&spans);
      recorder.writeChromeTrace(os);
    }
    const std::size_t spanCount = recorder.tracer()->spanCount();
    sys.reset();
    const auto t1 = Clock::now();

    const auto& e = probe.end;
    const double ops = static_cast<double>(res.rate.opsInWindow);
    const double msgs = e.at("net.msgsLocalTile") + e.at("net.msgsSameGroup") +
                        e.at("net.msgsRemoteGroup");
    const auto bank = sim::Summary::of(spans.bank);
    // Registry gauges that mirror the window SystemCounters.
    Line registry;
    registry.num("instructions", e.at("core.issuedOps"))
        .num("sleepCycles", e.at("core.sleepCycles"))
        .num("stallCycles", e.at("core.stallCycles"))
        .num("bankAccesses", e.at("bank.requests"))
        .num("netLocalTile", e.at("net.msgsLocalTile"))
        .num("netSameGroup", e.at("net.msgsSameGroup"))
        .num("netRemoteGroup", e.at("net.msgsRemoteGroup"));
    Line layers;
    layers.num("arch.net_queue_cycles_per_msg",
               ratio(e.at("net.queueingDelay"), msgs))
        .num("arch.bank_backlog_mean",
             ratio(probe.backlogSum,
                   static_cast<double>(probe.backlogSamples)))
        .num("arch.net_req_cycles_mean", sim::Summary::of(spans.netReq).mean)
        .num("arch.bank_span_cycles_mean", bank.mean)
        .num("arch.bank_span_cycles_p99", bank.p99)
        .num("arch.net_resp_cycles_mean", sim::Summary::of(spans.netResp).mean)
        .num("atomics.sc_success_ratio",
             ratio(e.at("adapter.scSuccesses"),
                   e.at("adapter.scSuccesses") + e.at("adapter.scFailures")))
        .num("atomics.lr_fail_ratio",
             ratio(e.at("adapter.lrFails"),
                   e.at("adapter.lrGrants") + e.at("adapter.lrFails")))
        .num("atomics.wakeups_per_op",
             ratio(e.at("adapter.wakeUpRequests"), ops))
        .num("sync.rmw_retries_per_op",
             ratio(e.at("sync.rmwRetries") - probe.start.at("sync.rmwRetries"),
                   ops))
        .num("obs.trace_bytes_per_op",
             ratio(static_cast<double>(spans.bytes),
                   static_cast<double>(res.totalOps)));
    rec.boolean("ok", true)
        .num("wall_s", seconds(t0, t1))
        .num("events", events)
        .num("probe_events", probe.events)
        .num("span_count", static_cast<std::uint64_t>(spanCount))
        .num("spans_parsed", spans.opSpans)
        .obj("registry", registry)
        .obj("layers", layers)
        .obj("outcome", outcome(res));
  } catch (const std::exception& e) {
    sys.reset();
    rec.boolean("ok", false).str("error", e.what());
  }
  return rec;
}

// --- Host-speed reference --------------------------------------------------

/// Fixed work shaped like the simulator's own: a discrete-event loop over a
/// binary heap of 16384 pending events, each of which read-modify-writes a
/// pseudo-random word of a 4 MiB table and schedules its successor. It calls
/// nothing in libcolibri, so no change to the program can move its time;
/// only the host can. On a shared host, contention for the core's caches
/// slows the simulations and this loop alike, which a plain ALU loop or a
/// pointer chase does not track (see README.md, Host noise).
class ReferenceKernel {
 public:
  ReferenceKernel() : table_(kTableWords) {
    for (std::size_t i = 0; i < table_.size(); ++i) {
      table_[i] = i;
    }
  }

  /// Host seconds for kEvents events.
  double run() {
    const auto t0 = Clock::now();
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    const auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<>>
        heap;
    for (int i = 0; i < kPending; ++i) {
      heap.push(((next() & 1023) << 20) | (next() & 0xFFFFF));
    }
    const std::size_t mask = table_.size() - 1;
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      const std::uint64_t e = heap.top();
      heap.pop();
      const std::uint64_t v =
          table_[(e * 0x9E3779B97F4A7C15ull >> 20) & mask] += e;
      heap.push(e + ((1 + (v & 255)) << 20));
    }
    sink_ = heap.top();
    return seconds(t0, Clock::now());
  }

 private:
  static constexpr std::size_t kTableWords = std::size_t{1} << 19;
  static constexpr int kPending = 16384;
  static constexpr std::uint64_t kEvents = 1000000;
  std::vector<std::uint64_t> table_;
  volatile std::uint64_t sink_ = 0;  // keeps the loop's work observable
};

/// Runs the ReferenceKernel in a child process pinned, like this one, to
/// the CPU this process was on. The two take turns, so the kernel is timed
/// on the simulations' CPU, while its table stays out of this process's
/// peak RSS. The destructor ends the child and waits for it.
class HostReference {
 public:
  HostReference() {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(sched_getcpu(), &one);
    sched_setaffinity(0, sizeof(one), &one);  // best effort
    int toChild[2];
    int toParent[2];
    if (pipe(toChild) != 0) {
      throw std::runtime_error("pipe failed");
    }
    if (pipe(toParent) != 0) {
      close(toChild[0]);
      close(toChild[1]);
      throw std::runtime_error("pipe failed");
    }
    std::fflush(nullptr);
    pid_ = fork();
    if (pid_ == 0) {
      close(toChild[1]);
      close(toParent[0]);
      serve(toChild[0], toParent[1]);
      _exit(0);
    }
    close(toChild[0]);
    close(toParent[1]);
    go_ = toChild[1];
    done_ = toParent[0];
    if (pid_ < 0) {
      close(go_);
      close(done_);
      throw std::runtime_error("fork failed");
    }
    measure();  // untimed warm-up: first touch of the child's table
  }
  HostReference(const HostReference&) = delete;
  HostReference& operator=(const HostReference&) = delete;
  ~HostReference() {
    close(go_);  // the child reads end-of-file and exits
    close(done_);
    waitpid(pid_, nullptr, 0);
  }

  /// Runs the kernel once in the child; returns its host seconds.
  double measure() {
    const char go = 1;
    double s = 0;
    if (write(go_, &go, 1) != 1 ||
        read(done_, &s, sizeof(s)) != static_cast<ssize_t>(sizeof(s))) {
      throw std::runtime_error("reference process failed");
    }
    return s;
  }

 private:
  static void serve(int in, int out) {
    ReferenceKernel kernel;
    char go = 0;
    while (read(in, &go, 1) == 1) {
      const double s = kernel.run();
      if (write(out, &s, sizeof(s)) != static_cast<ssize_t>(sizeof(s))) {
        break;
      }
    }
  }

  pid_t pid_ = -1;
  int go_ = -1;
  int done_ = -1;
};

// --- Host fingerprint -------------------------------------------------------

std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned maxLeaf = 0, b = 0, c = 0, d = 0;
  __get_cpuid(0x80000000u, &maxLeaf, &b, &c, &d);
  if (maxLeaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
    s = s.c_str();  // drop trailing NULs
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

/// Time-stamp-counter rate over 50 ms of wall time: the nominal clock on
/// hosts with an invariant TSC. 0 where there is no TSC.
double cpuMhz() {
#if defined(__x86_64__) || defined(__i386__)
  const auto t0 = Clock::now();
  const auto c0 = __rdtsc();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto c1 = __rdtsc();
  const auto t1 = Clock::now();
  return static_cast<double>(c1 - c0) / seconds(t0, t1) / 1e6;
#else
  return 0.0;
#endif
}

Line fingerprint() {
  Line l;
  l.str("kind", "fingerprint")
      .num("cpus",
           static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .str("cpu_model", cpuModel())
      .num("cpu_mhz", cpuMhz())
#if defined(__clang__)
      .str("compiler", "clang " __VERSION__)
#elif defined(__GNUC__)
      .str("compiler", "gcc " __VERSION__)
#else
      .str("compiler", "unknown")
#endif
      .str("build_type", PERFBENCH_BUILD_TYPE)
#ifdef NDEBUG
      .boolean("ndebug", true);
#else
      .boolean("ndebug", false);
#endif
  return l;
}

Line processLine() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Line l;
  l.str("kind", "process")
      .num("peak_rss_kb", static_cast<std::uint64_t>(ru.ru_maxrss));
  return l;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --fingerprint\n"
               "       perfbench --describe WORKLOAD\n"
               "       perfbench --workload WORKLOAD --seed N --seconds S\n"
               "       perfbench --workload WORKLOAD --seed N --traced\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() == 1 && args[0] == "--fingerprint") {
    fingerprint().print();
    return 0;
  }
  if (args.size() == 2 && args[0] == "--describe") {
    const Workload* w = findWorkload(args[1]);
    if (w == nullptr) {
      return usage();
    }
    Line l;
    l.str("kind", "describe")
        .str("adapter", w->adapterFlag)
        .str("preset", w->preset)
        .num("cores", static_cast<std::uint64_t>(w->cores))
        .num("warmup", static_cast<std::uint64_t>(w->warmup))
        .num("measure", static_cast<std::uint64_t>(w->measure));
    l.print();
    return 0;
  }
  if (args.size() < 5 || args[0] != "--workload" || args[2] != "--seed") {
    return usage();
  }
  const Workload* w = findWorkload(args[1]);
  if (w == nullptr) {
    return usage();
  }
  const std::uint64_t seed = std::strtoull(args[3].c_str(), nullptr, 10);
  const bool untraced = args.size() == 6 && args[4] == "--seconds";
  if (!untraced && !(args.size() == 5 && args[4] == "--traced")) {
    return usage();
  }
  try {
    HostReference ref;
    // Each simulation's ref_s is the mean of the reference times just
    // before and just after it.
    double before = ref.measure();
    const auto start = Clock::now();
    const int minRuns = untraced ? 3 : 1;
    const double budget =
        untraced ? std::strtod(args[5].c_str(), nullptr) : 0.0;
    for (int n = 0; n < minRuns || seconds(start, Clock::now()) < budget;
         ++n) {
      Line rec = untraced ? untracedRun(*w, seed) : tracedRun(*w, seed);
      const double after = ref.measure();
      rec.num("ref_s", (before + after) / 2).print();
      std::fflush(stdout);
      before = after;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  processLine().print();
  return 0;
}
