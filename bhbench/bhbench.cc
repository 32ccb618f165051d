// bhbench: the repository benchmark, measured from outside the library.
//
//   bhbench --workload <bh_dense|archive_mixed|live_paced|fabric_feed>
//           --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//           [--size full|tiny] [--corrupt-reference]
//
// Every workload builds its inputs from the seed, computes a sequential
// core::InferenceEngine reference over exactly the input it feeds, and
// then runs timed trials (one untimed warm-up first) until --seconds
// have passed.  A trial is one monitor lifetime: set-up (session
// construction, which builds the study substrates, start(), and in the
// first trials replay_updates()), ingest, drain, close(window_end), and
// a comparison of the session's events with the reference.  Metrics are
// medians over trials; latencies are percentiles over all samples of
// the run.  Any mismatch makes the run exit non-zero.  The process and
// everything it starts run on one CPU (see pin_to_one_cpu).
//
// --trace 1 alternates traced and untraced trials.  Traced trials time
// every push, record spans around each call into a layer (written to
// <work-dir>/spans.json at exit), and run the per-layer extras
// (explicit checkpoints, a kReopen session, a recover=true session,
// fleet telemetry).  The untraced trials give trace.overhead_pct.
//
// The last stdout line is one JSON object: correct, attempted, failed
// and metrics (end-to-end metrics with --trace 0, per-layer ones with
// --trace 1).  README.md in this directory describes each workload
// and metric.
#include <fcntl.h>
#include <malloc.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/query.h"
#include "api/session.h"
#include "api/sink.h"
#include "bgp/mrt.h"
#include "core/engine.h"
#include "core/study.h"
#include "net/bytes.h"
#include "stream/source.h"
#include "util/rng.h"

// ---- counting allocator ----------------------------------------------------
// Thread-local, so the producer thread's count is exact whatever the
// shard workers, the sink thread or the dashboard thread allocate.
namespace {
thread_local std::uint64_t t_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace bgpbh;

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using core::PeerEvent;
using routing::FeedUpdate;

// ---- clocks ------------------------------------------------------------------

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double secs(std::uint64_t from, std::uint64_t to) {
  return static_cast<double>(to - from) * 1e-9;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

// Resident set size of this process, MiB, from /proc/self/statm.
// Allocation-free: it runs on the producer thread, whose allocations
// the benchmark counts.
double self_rss_mb() {
  char buf[128] = {};
  int fd = ::open("/proc/self/statm", O_RDONLY);
  if (fd < 0) return 0.0;
  ssize_t n = ::read(fd, buf, sizeof(buf) - 1);
  ::close(fd);
  unsigned long size = 0, resident = 0;
  if (n <= 0 || std::sscanf(buf, "%lu %lu", &size, &resident) != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1 << 20);
}

// utime + stime of another process, from /proc/<pid>/stat.
double child_cpu_s(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line.
  auto close_paren = text.rfind(')');
  if (close_paren == std::string::npos) return 0.0;
  std::istringstream rest(text.substr(close_paren + 2));
  std::string field;
  double utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::atof(field.c_str());
    if (i == 15) stime = std::atof(field.c_str());
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

// A field ("VmRSS:", "VmHWM:") of another process's status, MiB.
double child_mem_mb(pid_t pid, const char* field) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::atof(line.c_str() + std::strlen(field)) / 1024.0;
    }
  }
  return 0.0;
}

// How much resident memory the monitor adds from the end of set-up
// to close.  Set-up leaves a seed-dependent amount of freed replay
// memory in the allocator; trimming it first keeps the baseline
// comparable across seeds.
class RssWatch {
 public:
  RssWatch() {
    malloc_trim(0);
    base_ = peak_ = self_rss_mb();
  }
  void sample() { peak_ = std::max(peak_, self_rss_mb()); }
  double growth_mb() const { return peak_ - base_; }

 private:
  double base_ = 0, peak_ = 0;
};
constexpr std::size_t kRssSampleEvery = 16384;  // pushes

// ---- statistics ----------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, q in [0, 1].
template <typename T>
double percentile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return static_cast<double>(v[rank]);
}

// ---- spans -------------------------------------------------------------------------
// Name, start, end, parent and trial id of every call the benchmark
// makes into a layer, kept in memory and written out at exit.  Off in
// untraced trials.

struct Span {
  std::string name;
  std::uint64_t start = 0, end = 0;
  int parent = -1;
  int run_id = 0;
};

class Tracer {
 public:
  bool on = false;
  int run_id = 0;

  int open(const char* name) {
    if (!on) return -1;
    spans_.push_back(Span{name, now_ns(), 0, current_, run_id});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int idx) {
    if (idx < 0) return;
    spans_[idx].end = now_ns();
    current_ = spans_[idx].parent;
  }
  bool write(const std::string& path) const {
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "  {\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"start_ns\": " << s.start << ", \"end_ns\": " << s.end
          << ", \"parent\": " << s.parent << ", \"run_id\": " << s.run_id
          << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
  int current_ = -1;
};

Tracer g_tracer;

// Times one call into a layer; records a span when tracing.
class Timed {
 public:
  explicit Timed(const char* name)
      : span_(g_tracer.open(name)), start_(now_ns()) {}
  ~Timed() { stop(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;
  // Seconds since construction; the first call ends the span.
  double stop() {
    if (!stopped_) {
      end_ = now_ns();
      g_tracer.close(span_);
      stopped_ = true;
    }
    return secs(start_, end_);
  }

 private:
  int span_;
  std::uint64_t start_;
  std::uint64_t end_ = 0;
  bool stopped_ = false;
};

// ---- CPU pinning ---------------------------------------------------------------------
// The machine this benchmark was tuned on shares its host: over periods
// of minutes the host runs its four virtual CPUs at anywhere from one
// to four cores' worth of time, while one busy virtual CPU always gets
// a full core.  Unpinned, the same code's ingest rate swung 3x with
// those periods.  So the whole benchmark (every thread it and the
// library start, and the shard servers it spawns, which inherit the
// mask) runs on one CPU: the figures measure the work and hand-offs per
// update, not the host's load.  Returns the CPU, or -1.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;  // the highest allowed CPU
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

// ---- options -------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool corrupt_reference = false;
  std::string work_dir;
};

int usage() {
  std::fprintf(stderr,
               "usage: bhbench --workload <bh_dense|archive_mixed|live_paced|"
               "fabric_feed> --seed <n> --seconds <s> --trace <0|1> "
               "--work-dir <dir> [--size full|tiny] [--corrupt-reference]\n");
  return 2;
}

// ---- shared sizing -----------------------------------------------------------------
// Sized as a 4-core deployment would run (the benchmark itself runs on
// one CPU, see pin_to_one_cpu): two shard workers plus one producer
// leave a core for the dispatcher, the spill writer or the dashboard
// thread.
constexpr std::size_t kShards = 2;
constexpr std::size_t kFabricSlots = 4;
constexpr double kPacedRate = 200000.0;  // live_paced offered updates/s
constexpr std::uint64_t kCheckpointEvery = 100000;
// live_paced: a generator that falls this far behind its schedule has
// not offered the stated rate; the run is invalid, not slow.
constexpr double kMaxLagMsP99 = 250.0;

// Every seed yields a stream of a different length; each workload
// feeds a fixed number of updates so that per-trial work does not vary
// with the seed.  0 = the whole stream (the self-test's tiny size).
struct Sizing {
  int days;
  double dense_intensity;     // bh_dense / fabric_feed study stream
  double mixed_intensity;     // archive_mixed / live_paced study stream
  std::size_t dense_updates;  // per trial
  std::size_t mixed_updates;  // per trial (archive_mixed)
  std::size_t paced_updates;  // per trial (live_paced: 1 s at kPacedRate)
  std::size_t min_trials;
};

Sizing sizing(const Options& o) {
  if (o.tiny) return Sizing{2, 0.02, 0.02, 0, 0, 0, 1};
  return Sizing{14, 0.15, 0.05, 120000, 300000, 200000, 3};
}

// Cuts `updates` to `n` (0 = keep all); false when the seed's stream
// is shorter than the workload size.
bool fit(std::vector<FeedUpdate>& updates, std::size_t n) {
  if (n == 0) return true;
  if (updates.size() < n) return false;
  updates.resize(n);
  return true;
}

core::StudyConfig study_config(const Options& o, double intensity) {
  core::StudyConfig c;
  c.seed = o.seed;
  c.workload.seed = o.seed;
  c.workload.intensity_scale = intensity;
  c.window_start = util::from_date(2017, 3, 1);
  c.window_end = c.window_start + sizing(o).days * util::kDay;
  // Fabric clients require it, and the in-process workloads match so
  // every workload's reference starts from empty engine state.
  c.table_dump_episodes = 0;
  return c;
}

std::string date_arg(util::SimTime t) {
  util::Date d = util::to_date(t);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", d.year, d.month, d.day);
  return buf;
}

// ---- reference ------------------------------------------------------------------------

struct Reference {
  std::vector<PeerEvent> events;  // canonical order
  core::EngineStats stats;
  double seq_s = 0;  // one pass of the sequential engine
};

Reference sequential_reference(const core::Study& study,
                               const std::vector<FeedUpdate>& input) {
  Reference ref;
  std::uint64_t t0 = now_ns();
  core::InferenceEngine engine(study.dictionary(), study.registry());
  for (const auto& u : input) engine.process(u.platform, u.update);
  engine.finish(study.config().window_end);
  ref.seq_s = secs(t0, now_ns());
  ref.events = engine.events();
  ref.stats = engine.stats();
  core::canonical_sort(ref.events);
  return ref;
}

struct Diff {
  std::uint64_t missing = 0, extra = 0;
};

Diff compare(const std::vector<PeerEvent>& got,
             const std::vector<PeerEvent>& want) {
  // Both canonically sorted: walk them as multisets.
  Diff d;
  std::size_t i = 0, j = 0;
  while (i < got.size() || j < want.size()) {
    if (i < got.size() && j < want.size() && got[i] == want[j]) {
      ++i, ++j;
    } else if (j == want.size() || (i < got.size() && core::canonical_less(got[i], want[j]))) {
      ++d.extra, ++i;
    } else {
      ++d.missing, ++j;
    }
  }
  return d;
}

// ---- accounting -----------------------------------------------------------------------

struct Accounting {
  std::uint64_t pushes = 0, pushes_refused = 0;
  std::uint64_t queries = 0, queries_failed = 0;
  std::uint64_t reference_events = 0, missing = 0, extra = 0;
  std::uint64_t lost = 0, shed = 0;
  bool correct = true;
  std::vector<std::string> problems;

  std::uint64_t attempted() const {
    return pushes + queries + reference_events;
  }
  std::uint64_t failed() const {
    return pushes_refused + queries_failed + missing + extra + lost + shed;
  }
  void fail(const std::string& what) {
    correct = false;
    problems.push_back(what);
  }
  void check_events(const std::vector<PeerEvent>& got, const Reference& ref,
                    const char* what) {
    Diff d = compare(got, ref.events);
    reference_events += ref.events.size();
    missing += d.missing;
    extra += d.extra;
    if (d.missing || d.extra) {
      fail(std::string(what) + ": " + std::to_string(d.missing) +
           " reference events missing, " + std::to_string(d.extra) +
           " extra");
    }
  }
  void check_session(const api::AnalysisSession& s) {
    lost += s.events_lost();
    shed += s.events_shed();
  }
};

// ---- per-run sample store ------------------------------------------------------------

struct Samples {
  std::map<std::string, std::vector<double>> by_name;
  void add(const std::string& name, double v) { by_name[name].push_back(v); }
  // Pooled samples (latencies): percentiles are taken over all of them.
  void append(const std::string& name, const std::vector<double>& v) {
    auto& into = by_name[name];
    into.insert(into.end(), v.begin(), v.end());
  }
  void merge(const Samples& other) {
    for (const auto& [name, v] : other.by_name) append(name, v);
  }
  const std::vector<double>& get(const std::string& name) const {
    static const std::vector<double> kEmpty;
    auto it = by_name.find(name);
    return it == by_name.end() ? kEmpty : it->second;
  }
  double med(const std::string& name) const { return median(get(name)); }
  double pct(const std::string& name, double q) const {
    return percentile(get(name), q);
  }
};

struct RunState {
  Options opt;
  Accounting acct;
  // kept[traced]: end-to-end samples from untraced trials, per-layer
  // samples from traced ones.
  Samples kept[2];
  Samples trial;  // the running trial's samples
  Samples once;   // per-run per-layer values
  bool full_setup = true;  // the running trial replays (see timed_setup)
  std::uint64_t updates_per_trial = 0;
  double bh_share = 0;
  int trials = 0;
};

constexpr int kSetupTrials = 5;

// The run's reference over exactly `input`, and the input properties
// every workload reports.  Traced runs time three passes and keep the
// median as core.seq_ns_per_update.  --corrupt-reference drops one
// event, which every trial must then detect.
Reference make_reference(RunState& rs, const core::Study& study,
                         const std::vector<FeedUpdate>& input) {
  Reference ref = sequential_reference(study, input);
  std::vector<double> seq{ref.seq_s};
  while (rs.opt.trace && seq.size() < 3) {
    seq.push_back(sequential_reference(study, input).seq_s);
  }
  ref.seq_s = median(seq);
  if (rs.opt.corrupt_reference && !ref.events.empty()) ref.events.pop_back();
  rs.updates_per_trial = input.size();
  rs.bh_share = static_cast<double>(ref.stats.events_opened) /
                static_cast<double>(ref.stats.announcements_seen);
  rs.once.add("core.seq_ns_per_update",
              ref.seq_s * 1e9 / static_cast<double>(input.size()));
  return ref;
}

// Runs `trial(traced)` once as a warm-up, then until the measurement
// window has passed and at least min_trials trials of each kind ran.
// With --trace 1 the trials alternate traced / untraced.
void run_trials(RunState& rs, const std::function<void(bool)>& trial) {
  g_tracer.on = false;
  g_tracer.run_id = 0;
  trial(false);  // warm-up: page cache, allocator arenas, lazy statics
  rs.trial = Samples{};
  const int kinds = rs.opt.trace ? 2 : 1;
  const int min_trials = static_cast<int>(sizing(rs.opt).min_trials) * kinds;
  const std::uint64_t start = now_ns();
  for (int k = 1;; ++k) {
    bool traced = rs.opt.trace && (k % 2 == 1);
    rs.full_setup = (k - 1) / kinds < kSetupTrials;
    g_tracer.on = traced;
    g_tracer.run_id = k;
    trial(traced);
    g_tracer.on = false;
    ++rs.trials;
    rs.kept[traced].merge(rs.trial);
    std::fprintf(stderr, "trial %d%s:", k, traced ? " traced" : "");
    for (const char* name : {"setup_s", "ingest_updates_per_s", "close_s",
                             "cpu_us_per_update", "peak_rss_mb"}) {
      const auto& v = rs.trial.get(name);
      if (!v.empty()) std::fprintf(stderr, " %s=%.6g", name, v.back());
    }
    std::fprintf(stderr, "\n");
    rs.trial = Samples{};
    if (!rs.acct.correct) return;
    if (k >= min_trials && k % kinds == 0 &&
        secs(start, now_ns()) >= rs.opt.seconds) {
      return;
    }
  }
}

// ---- shared trial pieces ---------------------------------------------------------------

// Per-push wall times of a traced trial, ns.
using PushTiming = std::vector<std::uint32_t>;

// Pushes `updates` in a closed loop from this thread; returns the
// number accepted.  Traced: every push is timed.
std::uint64_t push_all(api::AnalysisSession& session,
                       const std::vector<FeedUpdate>& updates, bool traced,
                       PushTiming& timing, RssWatch& rss) {
  std::uint64_t accepted = 0;
  if (traced) timing.reserve(updates.size());
  for (std::size_t i = 0; i < updates.size(); ++i) {
    if (traced) {
      std::uint64_t t = now_ns();
      accepted += session.push(updates[i]) ? 1 : 0;
      timing.push_back(static_cast<std::uint32_t>(
          std::min<std::uint64_t>(now_ns() - t, UINT32_MAX)));
    } else {
      accepted += session.push(updates[i]) ? 1 : 0;
    }
    if (i % kRssSampleEvery == 0) rss.sample();
  }
  return accepted;
}

// Per-layer numbers of one ingest phase that every in-process workload
// reports the same way.
struct IngestCosts {
  double wall_s = 0;       // first push .. drain() return
  double push_wall_s = 0;  // the push loop alone
  double process_cpu_s = 0;
  double producer_cpu_s = 0;
  std::uint64_t producer_allocs = 0;
  double drain_s = 0;
};

void record_ingest(RunState& rs, std::uint64_t updates,
                   const IngestCosts& c, const Reference& ref) {
  Samples& s = rs.trial;
  double n = static_cast<double>(updates);
  s.add("ingest_updates_per_s", n / c.wall_s);
  s.add("cpu_us_per_update", c.process_cpu_s * 1e6 / n);
  s.add("stream.producer_cpu_share", c.producer_cpu_s / c.push_wall_s);
  s.add("stream.producer_allocs_per_update",
        static_cast<double>(c.producer_allocs) / n);
  s.add("stream.drain_wait_ms", c.drain_s * 1e3);
  s.add("stream.worker_cpu_us_per_update",
        (c.process_cpu_s - c.producer_cpu_s) * 1e6 / n);
  double seq_rate = static_cast<double>(ref.stats.updates_processed) /
                    std::max(ref.seq_s, 1e-9);
  s.add("stream.speedup_vs_sequential", (n / c.wall_s) / seq_rate);
}

void record_push_timing(RunState& rs, const char* prefix,
                        const PushTiming& timing) {
  if (timing.empty()) return;
  rs.trial.add(std::string(prefix) + "_p50", percentile(timing, 0.50));
  rs.trial.add(std::string(prefix) + "_p99", percentile(timing, 0.99));
}

api::SessionConfig live_config(const core::StudyConfig& study) {
  api::SessionConfig c;
  c.mode = api::SessionConfig::Mode::kLiveFeed;
  c.study = study;
  c.num_shards = kShards;
  c.num_producers = 1;
  return c;
}

// Set-up as a monitor pays it: session construction (which builds the
// study substrates), replay_updates(), start().  `before_start` runs
// untimed between replay and start (sink subscription).  Every trial
// builds and starts a fresh session; only the first kSetupTrials of
// each kind also replay (and check that the replay equals `input`,
// cut to `input`'s length) and record setup_s, so that most of a run
// is spent ingesting.
std::unique_ptr<api::AnalysisSession> timed_setup(
    RunState& rs, const api::SessionConfig& config,
    const std::vector<FeedUpdate>& input,
    const std::function<void(api::AnalysisSession&)>& before_start = {},
    double extra_setup_s = 0) {
  Timed all("setup");
  double study_s, replay_s = 0, start_s;
  std::unique_ptr<api::AnalysisSession> session;
  {
    Timed t("core.study");
    session = std::make_unique<api::AnalysisSession>(config);
    study_s = t.stop();
  }
  std::vector<FeedUpdate> replayed;
  if (rs.full_setup) {
    Timed t("workload.replay");
    replayed = session->study().replay_updates();
    replay_s = t.stop();
  }
  if (before_start) before_start(*session);
  {
    Timed t("api.start");
    session->start();
    start_s = t.stop();
  }
  all.stop();
  if (rs.full_setup) {
    if (replayed.size() < input.size()) replayed.clear();
    replayed.resize(input.size());
    if (replayed != input) {
      rs.acct.fail("replay_updates() differs from the run's reference input");
    }
    rs.trial.add("setup_s", study_s + replay_s + start_s + extra_setup_s);
    rs.trial.add("core.study_s", study_s);
    rs.trial.add("workload.replay_s", replay_s);
    rs.trial.add("api.start_s", start_s);
  }
  return session;
}

void record_telemetry_snapshot(RunState& rs, api::AnalysisSession& session) {
  Timed t("telemetry.snapshot");
  auto snap = session.telemetry().snapshot();
  (void)snap;
  rs.trial.add("telemetry.snapshot_ms", t.stop() * 1e3);
}

// ---- bh_dense ---------------------------------------------------------------------------

void run_bh_dense(RunState& rs) {
  const Options& o = rs.opt;
  core::StudyConfig sc = study_config(o, sizing(o).dense_intensity);
  core::Study study(sc);
  std::vector<FeedUpdate> input = study.replay_updates();
  if (!fit(input, sizing(o).dense_updates)) {
    rs.acct.fail("seed yields fewer updates than the workload size");
    return;
  }
  const Reference ref = make_reference(rs, study, input);

  // Timed trials run in memory: with persist_dir and checkpoint_every
  // set, the quartile spread of ten seeded runs reached 0.28-0.30 of the
  // median on the tuning machine (the spill's file writes meet the
  // host's noise), which no bound can gate.  The persisted pass below
  // measures the same stream through the segment log and checkpoints.
  run_trials(rs, [&](bool traced) {
    auto owned = timed_setup(rs, live_config(sc), input);
    api::AnalysisSession& session = *owned;

    IngestCosts c;
    PushTiming timing;
    RssWatch rss;
    Timed ingest("ingest");
    double cpu0 = process_cpu_s(), pcpu0 = thread_cpu_s();
    std::uint64_t allocs0 = t_allocs;
    std::uint64_t t0 = now_ns();
    std::uint64_t accepted;
    {
      Timed t("api.push_loop");
      accepted = push_all(session, input, traced, timing, rss);
      c.push_wall_s = t.stop();
    }
    c.producer_cpu_s = thread_cpu_s() - pcpu0;
    c.producer_allocs = t_allocs - allocs0;
    {
      Timed t("stream.drain");
      session.drain();
      c.drain_s = t.stop();
    }
    c.wall_s = secs(t0, now_ns());
    c.process_cpu_s = process_cpu_s() - cpu0;
    ingest.stop();
    rs.acct.pushes += input.size();
    rs.acct.pushes_refused += input.size() - accepted;
    record_ingest(rs, accepted, c, ref);
    if (traced) {
      record_push_timing(rs, "api.push_ns", timing);
      record_telemetry_snapshot(rs, session);
    }
    {
      Timed t("api.close");
      session.close(sc.window_end);
      rs.trial.add("close_s", t.stop());
    }
    rss.sample();
    rs.trial.add("peak_rss_mb", rss.growth_mb());
    rs.acct.check_session(session);
    rs.acct.check_events(session.events(), ref, "bh_dense");
  });
  if (!o.trace || !rs.acct.correct) return;
  g_tracer.on = true;

  // Persisted pass, as a deployed monitor runs: persist_dir and a
  // checkpoint cadence, one explicit checkpoint_now() after drain().
  // Three passes; the last one's directory serves the read path.
  std::string dir;
  for (int pass = 0; pass < 3; ++pass) {
    g_tracer.run_id = rs.trials + 1 + pass;
    dir = o.work_dir + "/bh_dense-persisted-" + std::to_string(pass);
    fs::remove_all(dir);
    api::SessionConfig config = live_config(sc);
    config.persist_dir = dir;
    config.checkpoint_every = kCheckpointEvery;
    api::AnalysisSession session(config);
    session.start();
    std::uint64_t t0 = now_ns();
    {
      Timed t("storage.persisted_ingest");
      for (const auto& u : input) session.push(u);
      session.drain();
    }
    rs.once.add("storage.persisted_ingest_updates_per_s",
                static_cast<double>(input.size()) / secs(t0, now_ns()));
    {
      Timed t("recovery.checkpoint_now");
      if (!session.checkpoint_now()) rs.acct.fail("checkpoint_now() failed");
      rs.once.add("recovery.checkpoint_ms", t.stop() * 1e3);
    }
    session.close(sc.window_end);
    rs.acct.check_session(session);
    rs.acct.check_events(session.events(), ref, "bh_dense persisted");
    if (session.events_persisted() != ref.events.size()) {
      rs.acct.fail("events_persisted() != closed events");
    }
    rs.once.add("storage.segments",
                static_cast<double>(session.segments_sealed()));
    rs.once.add("storage.bytes_per_event",
                static_cast<double>(session.persisted_bytes()) /
                    static_cast<double>(std::max<std::uint64_t>(
                        session.events_persisted(), 1)));
    rs.once.add("recovery.cadence_checkpoints",
                static_cast<double>(session.checkpoints_written()));
  }

  // Read path: a kReopen session over the last persisted directory.
  {
    api::SessionConfig config;
    config.mode = api::SessionConfig::Mode::kReopen;
    config.persist_dir = dir;
    std::unique_ptr<api::AnalysisSession> reopened;
    {
      Timed t("storage.reopen");
      reopened = std::make_unique<api::AnalysisSession>(config);
      rs.once.add("storage.reopen_s", t.stop());
    }
    std::vector<double> q;
    for (int day = 0; day < sizing(o).days; ++day) {
      Timed t("storage.reopen_query");
      util::SimTime d0 = sc.window_start + day * util::kDay;
      (void)reopened->count(api::EventQuery().between(d0, d0 + util::kDay));
      q.push_back(t.stop() * 1e3);
    }
    rs.once.add("storage.reopen_query_ms", median(q));
    rs.acct.check_events(reopened->events(), ref, "bh_dense reopen");
  }
  // Recovery: a session checkpointed at a drained point halfway, then
  // abandoned; a recover=true session on its directory re-feeds the
  // same stream and must end with the clean run's events.
  {
    std::string rdir = o.work_dir + "/bh_dense-recover";
    fs::remove_all(rdir);
    api::SessionConfig config = live_config(sc);
    config.persist_dir = rdir;
    config.checkpoint_every = kCheckpointEvery;
    {
      api::AnalysisSession first(config);
      first.start();
      for (std::size_t i = 0; i < input.size() / 2; ++i) first.push(input[i]);
      first.drain();
      if (!first.checkpoint_now()) rs.acct.fail("recovery checkpoint failed");
    }
    config.recover = true;
    std::unique_ptr<api::AnalysisSession> recovered;
    {
      Timed t("recovery.recover");
      recovered = std::make_unique<api::AnalysisSession>(config);
      rs.once.add("recovery.recover_s", t.stop());
    }
    if (!recovered->recovered()) rs.acct.fail("recover=true restored nothing");
    recovered->start();
    for (const auto& u : input) recovered->push(u);
    recovered->close(sc.window_end);
    rs.acct.check_events(recovered->events(), ref, "bh_dense recover");
  }
  g_tracer.on = false;
}

// ---- mixed stream (archive_mixed, live_paced) ------------------------------------------

// The study stream interleaved with seeded background announcements
// so that about 9 in 10 updates are non-blackhole announcements.
// `total` > 0 fixes the length: the earliest study updates that, with
// background filling the rest, give that share.  Every seed then feeds
// the same number of study and background updates; the study stream
// is bursty, so a plain prefix of a longer mix would not.  `total` == 0
// mixes the whole study stream.  Background updates use collector
// peers of the study stream, prefixes the study never touches (and no
// bogons), and zero to two communities outside the blackhole
// dictionary, so they take the engine's negative path without changing
// any blackhole event.  False when the study stream is too short.
bool mixed_stream(const core::Study& study, std::vector<FeedUpdate> bh,
                  std::uint64_t seed, std::size_t total,
                  std::vector<FeedUpdate>& out) {
  const auto& dict = study.dictionary();
  // Study updates keep their relative order (per-key transition order).
  std::stable_sort(bh.begin(), bh.end(),
                   [](const FeedUpdate& a, const FeedUpdate& b) {
                     return a.update.time < b.update.time;
                   });
  std::set<net::Prefix> used;
  std::uint64_t non_bh_ann = 0;
  for (const auto& u : bh) {
    for (const auto& p : u.update.body.announced) used.insert(p);
    for (const auto& p : u.update.body.withdrawn) used.insert(p);
    if (!u.update.body.announced.empty() &&
        !dict.any_blackhole(u.update.body.communities)) {
      ++non_bh_ann;
    }
  }
  // With K study updates of which a share r are non-blackhole
  // announcements, K (1 - r) = 0.1 N.
  const double kShare = 0.9;
  const double r = static_cast<double>(non_bh_ann) /
                   static_cast<double>(std::max<std::size_t>(bh.size(), 1));
  std::size_t background;
  if (total > 0) {
    auto k = static_cast<std::size_t>((1.0 - kShare) *
                                      static_cast<double>(total) / (1.0 - r));
    if (k == 0 || k > bh.size() || k >= total) return false;
    bh.resize(k);
    background = total - k;
  } else {
    background = static_cast<std::size_t>(static_cast<double>(bh.size()) *
                                          (kShare - r) / (1.0 - kShare));
  }
  std::vector<const FeedUpdate*> announcers;
  for (const auto& u : bh) {
    if (!u.update.body.announced.empty()) announcers.push_back(&u);
  }
  if (announcers.empty()) return false;

  util::Rng rng(seed ^ 0xB4C6'9A0DULL);
  core::BgpCleaner cleaner;
  const util::SimTime t0 = bh.front().update.time;
  const util::SimTime span = bh.back().update.time - t0 + 1;
  out.clear();
  out.reserve(bh.size() + background);
  out.insert(out.end(), bh.begin(), bh.end());
  for (std::size_t i = 0; i < background; ++i) {
    const FeedUpdate& like =
        *announcers[rng.uniform(announcers.size())];
    FeedUpdate u;
    u.platform = like.platform;
    u.update.peer_ip = like.update.peer_ip;
    u.update.peer_asn = like.update.peer_asn;
    u.update.collector_id = like.update.collector_id;
    u.update.time = t0 + static_cast<util::SimTime>(
                             rng.uniform(static_cast<std::uint64_t>(span)));
    u.update.body.as_path = like.update.body.as_path;
    u.update.body.next_hop = like.update.body.next_hop;
    for (;;) {
      std::uint32_t a = static_cast<std::uint32_t>(rng.uniform_range(1, 223));
      std::uint32_t b = static_cast<std::uint32_t>(rng.uniform_range(0, 255));
      std::uint32_t c = static_cast<std::uint32_t>(rng.uniform_range(0, 255));
      auto p = net::Prefix::parse(std::to_string(a) + "." + std::to_string(b) +
                                  "." + std::to_string(c) + ".0/24");
      if (p && !cleaner.is_bogus(*p) && !used.contains(*p)) {
        u.update.body.announced.push_back(*p);
        break;
      }
    }
    std::size_t comms = rng.uniform_range(0, 2);
    while (u.update.body.communities.classic().size() < comms) {
      bgp::Community c(static_cast<std::uint16_t>(rng.uniform_range(1, 65000)),
                       static_cast<std::uint16_t>(rng.uniform_range(1, 65000)));
      if (!dict.is_blackhole(c)) u.update.body.communities.add(c);
    }
    out.push_back(std::move(u));
  }
  // Background updates fall in by time.
  std::stable_sort(out.begin(), out.end(),
                   [](const FeedUpdate& a, const FeedUpdate& b) {
                     return a.update.time < b.update.time;
                   });
  return true;
}

// ---- archive_mixed ----------------------------------------------------------------------

// Times the gap between consecutive next() calls: the push of the
// update the previous call returned (plus the feed loop).  Used only
// in traced trials, around the source feed() consumes.
class PushGapSource : public stream::UpdateSource {
 public:
  PushGapSource(stream::UpdateSource& inner, PushTiming& timing)
      : inner_(inner), timing_(timing) {}
  const FeedUpdate* next() override {
    std::uint64_t t = now_ns();
    if (last_ != 0) {
      timing_.push_back(static_cast<std::uint32_t>(
          std::min<std::uint64_t>(t - last_, UINT32_MAX)));
    }
    const FeedUpdate* u = inner_.next();
    last_ = now_ns();
    return u;
  }

 private:
  stream::UpdateSource& inner_;
  PushTiming& timing_;
  std::uint64_t last_ = 0;
};

void run_archive_mixed(RunState& rs) {
  const Options& o = rs.opt;
  core::StudyConfig sc = study_config(o, sizing(o).mixed_intensity);
  core::Study study(sc);
  const std::vector<FeedUpdate> bh = study.replay_updates();
  std::vector<std::string> paths;
  std::vector<routing::Platform> platforms;
  std::vector<FeedUpdate> fed;  // exactly what feed() will see, in order
  {
    std::vector<FeedUpdate> mixed;
    if (!mixed_stream(study, bh, o.seed, sizing(o).mixed_updates, mixed)) {
      rs.acct.fail("seed yields fewer updates than the workload size");
      return;
    }
    for (routing::Platform p : routing::kAllPlatforms) {
      net::BufWriter archive;
      std::size_t n = 0;
      for (const auto& u : mixed) {
        if (u.platform != p) continue;
        bgp::mrt::encode_update(u.update, archive);
        ++n;
      }
      if (n == 0) continue;
      std::string path = o.work_dir + "/archive-" + routing::to_string(p) + ".mrt";
      if (!bgp::mrt::write_file(path, archive.data())) {
        rs.acct.fail("cannot write " + path);
        return;
      }
      paths.push_back(path);
      platforms.push_back(p);
    }
    for (std::size_t i = 0; i < paths.size(); ++i) {
      auto src = stream::MrtFileSource::open(paths[i], platforms[i]);
      if (!src) {
        rs.acct.fail("cannot reopen " + paths[i]);
        return;
      }
      while (const FeedUpdate* u = src->next()) fed.push_back(*u);
    }
    if (fed.size() != mixed.size()) rs.acct.fail("archive round trip lost updates");
  }
  const Reference ref = make_reference(rs, study, fed);
  const std::uint64_t total = fed.size();
  fed.clear();
  fed.shrink_to_fit();

  if (o.trace) {
    // Source cost alone: next() over an opened archive, no session.
    std::vector<double> next_ns;
    for (int rep = 0; rep < 3; ++rep) {
      std::uint64_t n = 0, elapsed = 0;
      for (std::size_t i = 0; i < paths.size(); ++i) {
        auto src = stream::MrtFileSource::open(paths[i], platforms[i]);
        std::uint64_t t = now_ns();
        while (src->next()) ++n;
        elapsed += now_ns() - t;
      }
      next_ns.push_back(static_cast<double>(elapsed) / static_cast<double>(n));
    }
    rs.once.add("stream.source_next_ns", median(next_ns));
  }

  run_trials(rs, [&](bool traced) {
    auto owned = timed_setup(rs, live_config(sc), bh);
    api::AnalysisSession& session = *owned;

    IngestCosts c;
    PushTiming timing;
    if (traced) timing.reserve(total);
    RssWatch rss;
    double decode_s = 0;
    std::uint64_t accepted = 0;
    Timed ingest("ingest");
    double cpu0 = process_cpu_s();
    std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < paths.size(); ++i) {
      std::optional<stream::MrtFileSource> src;
      {
        Timed t("bgp.mrt_open");
        src = stream::MrtFileSource::open(paths[i], platforms[i]);
        decode_s += t.stop();
      }
      if (!src) {
        rs.acct.fail("cannot open " + paths[i]);
        return;
      }
      double pcpu0 = thread_cpu_s();
      std::uint64_t allocs0 = t_allocs;
      Timed t("api.feed");
      if (traced) {
        PushGapSource gap(*src, timing);
        accepted += session.feed(gap);
      } else {
        accepted += session.feed(*src);
      }
      c.push_wall_s += t.stop();
      c.producer_allocs += t_allocs - allocs0;
      c.producer_cpu_s += thread_cpu_s() - pcpu0;
      rss.sample();
    }
    {
      Timed t("stream.drain");
      session.drain();
      c.drain_s = t.stop();
    }
    c.wall_s = secs(t0, now_ns());
    c.process_cpu_s = process_cpu_s() - cpu0;
    ingest.stop();
    rs.acct.pushes += total;
    rs.acct.pushes_refused += total - accepted;
    record_ingest(rs, accepted, c, ref);
    if (traced) {
      rs.trial.add("bgp.decode_ns_per_update",
                    decode_s * 1e9 / static_cast<double>(total));
      record_push_timing(rs, "api.push_ns", timing);
      record_telemetry_snapshot(rs, session);
    }
    {
      Timed t("api.close");
      session.close(sc.window_end);
      rs.trial.add("close_s", t.stop());
    }
    rss.sample();
    rs.trial.add("peak_rss_mb", rss.growth_mb());
    rs.acct.check_session(session);
    rs.acct.check_events(session.events(), ref, "archive_mixed");
  });
}

// ---- live_paced ---------------------------------------------------------------------------

struct CloseKey {
  routing::Platform platform;
  bgp::PeerKey peer;
  net::Prefix prefix;
  util::SimTime end;
  friend bool operator==(const CloseKey&, const CloseKey&) = default;
};

struct CloseKeyHash {
  std::size_t operator()(const CloseKey& k) const noexcept {
    std::size_t h = bgp::PeerKeyHash{}(k.peer);
    h ^= net::PrefixHash{}(k.prefix) + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    h ^= std::hash<util::SimTime>{}(k.end) + (h << 6) + (h >> 2);
    return h ^ static_cast<std::size_t>(k.platform);
  }
};

// The operator's alert channel: times explicit closes from the due
// time of the withdrawal that closed them.
class LatencySink : public api::EventSink {
 public:
  LatencySink(const std::unordered_map<CloseKey, std::uint32_t, CloseKeyHash>&
                  due_index,
              double rate)
      : due_index_(due_index), rate_(rate) {
    latencies_ms_.reserve(due_index.size());
  }
  void on_event_closed(const PeerEvent& ev) override {
    std::uint64_t now = now_ns();
    ++events_;
    if (!ev.explicit_withdrawal) return;  // implicit / cut-off: counted only
    auto it = due_index_.find(CloseKey{ev.platform, ev.peer, ev.prefix, ev.end});
    if (it == due_index_.end()) return;
    std::uint64_t due =
        start_ns_.load(std::memory_order_acquire) + static_cast<std::uint64_t>(it->second * 1e9 / rate_);
    latencies_ms_.push_back(now > due ? secs(due, now) * 1e3 : 0.0);
  }
  // Set before the first push; the sink thread reads it only for
  // events that push caused.
  void arm(std::uint64_t start_ns) {
    start_ns_.store(start_ns, std::memory_order_release);
  }
  std::uint64_t events() const { return events_; }
  const std::vector<double>& latencies_ms() const { return latencies_ms_; }

 private:
  const std::unordered_map<CloseKey, std::uint32_t, CloseKeyHash>& due_index_;
  std::atomic<std::uint64_t> start_ns_{0};
  double rate_;
  std::uint64_t events_ = 0;
  std::vector<double> latencies_ms_;
};

void run_live_paced(RunState& rs) {
  const Options& o = rs.opt;
  core::StudyConfig sc = study_config(o, sizing(o).mixed_intensity);
  core::Study study(sc);
  const std::vector<FeedUpdate> bh = study.replay_updates();
  std::vector<FeedUpdate> stream;
  if (!mixed_stream(study, bh, o.seed, sizing(o).paced_updates, stream)) {
    rs.acct.fail("seed yields fewer updates than the workload size");
    return;
  }
  const Reference ref = make_reference(rs, study, stream);
  std::unordered_map<CloseKey, std::uint32_t, CloseKeyHash> due_index;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const FeedUpdate& u = stream[i];
    for (const auto& p : u.update.body.withdrawn) {
      due_index.emplace(
          CloseKey{u.platform, bgp::PeerKey{u.update.peer_ip, u.update.peer_asn},
                   p, u.update.time},
          static_cast<std::uint32_t>(i));
    }
  }

  run_trials(rs, [&](bool traced) {
    std::unique_ptr<LatencySink> sink;
    auto owned = timed_setup(rs, live_config(sc), bh,
                           [&](api::AnalysisSession& s) {
                             sink = std::make_unique<LatencySink>(
                                 due_index, kPacedRate);
                             if (!s.subscribe(*sink)) {
                               rs.acct.fail("subscribe() refused");
                             }
                           });
    api::AnalysisSession& session = *owned;

    // Dashboard client: one count() every 10 ms over a rotating day
    // window, telemetry snapshot + health once a second.
    std::atomic<bool> stop{false};
    std::vector<double> query_ms, snapshot_ms;
    std::uint64_t queries = 0, queries_failed = 0;
    std::thread dashboard([&] {
      std::uint64_t next = now_ns();
      std::uint64_t next_snapshot = next + 1'000'000'000ULL;
      int day = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        next += 10'000'000ULL;
        std::this_thread::sleep_until(Clock::time_point(
            std::chrono::nanoseconds(next)));
        util::SimTime d0 = sc.window_start + day * util::kDay;
        day = (day + 1) % sizing(o).days;
        std::uint64_t t = now_ns();
        ++queries;
        try {
          (void)session.count(api::EventQuery().between(d0, d0 + util::kDay));
          query_ms.push_back(secs(t, now_ns()) * 1e3);
        } catch (...) {
          ++queries_failed;
        }
        if (now_ns() >= next_snapshot) {
          next_snapshot += 1'000'000'000ULL;
          std::uint64_t s = now_ns();
          auto snap = session.telemetry().snapshot();
          auto health = session.health();
          (void)snap;
          (void)health;
          snapshot_ms.push_back(secs(s, now_ns()) * 1e3);
        }
      }
    });

    // Open-loop generator: update i is due at start + i / rate.  The
    // thread sleeps to each 1 ms tick, pushes everything due by then,
    // and flushes so nothing waits in producer staging.
    IngestCosts c;
    PushTiming timing;
    if (traced) timing.reserve(stream.size());
    // One entry per 1 ms tick, reserved so the producer thread does not
    // allocate for the benchmark's own bookkeeping.
    std::vector<double> lag_ms, flush_ms;
    const auto ticks = static_cast<std::size_t>(
        static_cast<double>(stream.size()) / kPacedRate * 1000.0 * 2 + 100);
    lag_ms.reserve(ticks);
    flush_ms.reserve(ticks);
    RssWatch rss;
    std::uint64_t accepted = 0;
    Timed ingest("ingest");
    double cpu0 = process_cpu_s(), pcpu0 = thread_cpu_s();
    std::uint64_t allocs0 = t_allocs;
    const std::uint64_t start_ns = now_ns() + 1'000'000ULL;
    sink->arm(start_ns);
    const std::size_t n = stream.size();
    std::size_t sent = 0;
    {
      Timed t("api.push_loop");
      for (std::uint64_t tick = 0; sent < n; ++tick) {
        std::uint64_t tick_due = start_ns + tick * 1'000'000ULL;
        std::this_thread::sleep_until(Clock::time_point(
            std::chrono::nanoseconds(tick_due)));
        std::uint64_t now = now_ns();
        std::size_t due_until = std::min<std::size_t>(
            n, static_cast<std::size_t>(
                   static_cast<double>(now - start_ns) * 1e-9 * kPacedRate) +
                   1);
        if (due_until <= sent) continue;
        for (; sent < due_until; ++sent) {
          if (traced) {
            std::uint64_t p = now_ns();
            accepted += session.push(stream[sent]) ? 1 : 0;
            timing.push_back(static_cast<std::uint32_t>(
                std::min<std::uint64_t>(now_ns() - p, UINT32_MAX)));
          } else {
            accepted += session.push(stream[sent]) ? 1 : 0;
          }
          if (sent % kRssSampleEvery == 0) rss.sample();
        }
        std::uint64_t f = now_ns();
        session.flush();
        std::uint64_t done = now_ns();
        flush_ms.push_back(secs(f, done) * 1e3);
        std::uint64_t last_due =
            start_ns +
            static_cast<std::uint64_t>(static_cast<double>(sent - 1) * 1e9 /
                                       kPacedRate);
        lag_ms.push_back(done > last_due ? secs(last_due, done) * 1e3 : 0.0);
      }
      c.push_wall_s = t.stop();
    }
    c.producer_cpu_s = thread_cpu_s() - pcpu0;
    c.producer_allocs = t_allocs - allocs0;
    {
      Timed t("stream.drain");
      session.drain();
      c.drain_s = t.stop();
    }
    c.wall_s = secs(start_ns, now_ns());
    c.process_cpu_s = process_cpu_s() - cpu0;
    ingest.stop();
    stop = true;
    dashboard.join();

    rs.acct.pushes += n;
    rs.acct.pushes_refused += n - accepted;
    rs.acct.queries += queries;
    rs.acct.queries_failed += queries_failed;
    record_ingest(rs, accepted, c, ref);
    rs.trial.append("pool.lag_ms", lag_ms);
    rs.trial.append("pool.query_latency_ms", query_ms);
    if (traced) {
      record_push_timing(rs, "api.push_ns", timing);
      rs.trial.add("api.flush_ms", median(flush_ms));
      if (!snapshot_ms.empty()) {
        rs.trial.add("telemetry.snapshot_ms", median(snapshot_ms));
      }
    }
    {
      Timed t("api.close");
      session.close(sc.window_end);
      rs.trial.add("close_s", t.stop());
    }
    rss.sample();
    rs.trial.add("peak_rss_mb", rss.growth_mb());
    rs.acct.check_session(session);
    std::vector<PeerEvent> events = session.events();
    rs.acct.check_events(events, ref, "live_paced");
    // The sink thread has delivered everything once close() returned.
    if (sink->events() != events.size()) {
      rs.acct.fail("sink saw " + std::to_string(sink->events()) +
                   " closed events, session closed " +
                   std::to_string(events.size()));
    }
    rs.trial.append("pool.close_latency_ms", sink->latencies_ms());
    if (traced) {
      rs.trial.add("api.sink_events", static_cast<double>(sink->events()));
    }
    owned.reset();  // joins the dispatcher before the sink goes
  });
  for (int traced = 0; traced < 2; ++traced) {
    double p99 = rs.kept[traced].pct("pool.lag_ms", 0.99);
    if (p99 > kMaxLagMsP99) {
      rs.acct.fail("invalid run: generator lag p99 " + std::to_string(p99) +
                   " ms exceeds " + std::to_string(kMaxLagMsP99) + " ms");
    }
  }
}

// ---- fabric_feed -----------------------------------------------------------------------------

// One fork/exec'd shard_server.  The child prints "PORT <n>" once bound.
struct ServerProc {
  pid_t pid = -1;
  std::uint16_t port = 0;

  static ServerProc spawn(const std::string& dir, const core::StudyConfig& sc) {
    ServerProc proc;
    int fds[2] = {-1, -1};
    if (pipe(fds) != 0) return proc;
    std::vector<std::string> args = {
        BHBENCH_SHARD_SERVER,       "--dir",
        dir,                        "--producers",
        "1",                        "--port",
        "0",                        "--window-start",
        date_arg(sc.window_start),  "--window-end",
        date_arg(sc.window_end),    "--intensity",
        std::to_string(sc.workload.intensity_scale),
        "--seed",                   std::to_string(sc.seed)};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_t pid = fork();
    if (pid == 0) {
      // A benchmark killed by its caller's timeout takes its servers
      // with it.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      dup2(fds[1], STDOUT_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      execv(argv[0], argv.data());
      _exit(127);
    }
    ::close(fds[1]);
    std::string line;
    char ch = 0;
    while (read(fds[0], &ch, 1) == 1 && ch != '\n') line.push_back(ch);
    ::close(fds[0]);
    unsigned parsed = 0;
    if (pid > 0 && std::sscanf(line.c_str(), "PORT %u", &parsed) == 1) {
      proc.pid = pid;
      proc.port = static_cast<std::uint16_t>(parsed);
    } else if (pid > 0) {
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
    }
    return proc;
  }

  // Waits up to 10 s for a SHUTDOWN'd server to exit, then kills it.
  void reap() {
    if (pid <= 0) return;
    for (int i = 0; i < 1000; ++i) {
      if (waitpid(pid, nullptr, WNOHANG) == pid) {
        pid = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
    pid = -1;
  }

  ~ServerProc() {
    if (pid > 0) {
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
    }
  }
  ServerProc() = default;
  ServerProc(ServerProc&& other) noexcept : pid(other.pid), port(other.port) {
    other.pid = -1;
  }
  ServerProc& operator=(ServerProc&&) = delete;
  ServerProc(const ServerProc&) = delete;
  ServerProc& operator=(const ServerProc&) = delete;
};

void run_fabric_feed(RunState& rs) {
  const Options& o = rs.opt;
  core::StudyConfig sc = study_config(o, sizing(o).dense_intensity);
  core::Study study(sc);
  std::vector<FeedUpdate> input = study.replay_updates();
  if (!fit(input, sizing(o).dense_updates)) {
    rs.acct.fail("seed yields fewer updates than the workload size");
    return;
  }
  const Reference ref = make_reference(rs, study, input);

  int trial_no = 0;
  run_trials(rs, [&](bool traced) {
    std::string dir = o.work_dir + "/fabric-" + std::to_string(trial_no++);
    fs::remove_all(dir);
    std::vector<ServerProc> servers;
    double spawn_s;
    {
      Timed t("fabric.spawn_servers");
      for (int i = 0; i < 2; ++i) {
        servers.push_back(
            ServerProc::spawn(dir + "/server-" + std::to_string(i), sc));
        if (servers.back().pid <= 0) {
          rs.acct.fail("shard_server did not start");
          return;
        }
      }
      spawn_s = t.stop();
    }
    api::SessionConfig config = live_config(sc);
    config.num_shards = kFabricSlots;
    for (const auto& s : servers) {
      config.fabric.endpoints.push_back(fabric::FabricEndpoint{"127.0.0.1", s.port});
    }
    auto owned = timed_setup(rs, config, input, {}, spawn_s);
    api::AnalysisSession& session = *owned;

    PushTiming timing;
    RssWatch rss;
    double server_rss0 = 0;
    for (const auto& s : servers) server_rss0 += child_mem_mb(s.pid, "VmRSS:");
    Timed ingest("ingest");
    double cpu0 = process_cpu_s();
    double scpu0 = 0;
    for (const auto& s : servers) scpu0 += child_cpu_s(s.pid);
    std::uint64_t t0 = now_ns();
    std::uint64_t accepted;
    {
      Timed t("fabric.push_loop");
      accepted = push_all(session, input, traced, timing, rss);
    }
    double drain_s;
    {
      Timed t("fabric.drain");
      session.drain();
      drain_s = t.stop();
    }
    double wall = secs(t0, now_ns());
    double client_cpu = process_cpu_s() - cpu0;
    double server_cpu = -scpu0;
    for (const auto& s : servers) server_cpu += child_cpu_s(s.pid);
    ingest.stop();
    const double n = static_cast<double>(accepted);
    rs.acct.pushes += input.size();
    rs.acct.pushes_refused += input.size() - accepted;
    Samples& smp = rs.trial;
    smp.add("ingest_updates_per_s", n / wall);
    smp.add("cpu_us_per_update", (client_cpu + server_cpu) * 1e6 / n);
    if (traced) {
      record_push_timing(rs, "fabric.push_ns", timing);
      rs.trial.add("fabric.drain_ms", drain_s * 1e3);
      rs.trial.add("fabric.client_cpu_us_per_update", client_cpu * 1e6 / n);
      rs.trial.add("fabric.server_cpu_us_per_update", server_cpu * 1e6 / n);
      Timed t("fabric.fleet_telemetry");
      auto fleet = session.fabric()->fleet_telemetry();
      (void)fleet;
      rs.trial.add("fabric.fleet_stats_ms", t.stop() * 1e3);
    }
    {
      Timed t("api.close");
      session.close(sc.window_end);
      smp.add("close_s", t.stop());
    }
    rs.acct.check_session(session);
    rs.acct.check_events(session.events(), ref, "fabric_feed");
    rss.sample();
    double server_hwm = 0;
    for (const auto& s : servers) server_hwm += child_mem_mb(s.pid, "VmHWM:");
    smp.add("peak_rss_mb", rss.growth_mb() + server_hwm - server_rss0);
    session.fabric()->shutdown_endpoints();
    owned.reset();
    for (auto& s : servers) s.reap();
    fs::remove_all(dir);
  });
}

// ---- output ----------------------------------------------------------------------------------

struct MetricOut {
  std::string name, unit;
  double value;
};

std::string fmt(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--workload" && v) {
      o.workload = v, ++i;
    } else if (a == "--seed" && v) {
      o.seed = std::strtoull(v, nullptr, 10), ++i;
    } else if (a == "--seconds" && v) {
      o.seconds = std::atof(v), ++i;
    } else if (a == "--trace" && v) {
      o.trace = std::atoi(v) != 0, ++i;
    } else if (a == "--work-dir" && v) {
      o.work_dir = v, ++i;
    } else if (a == "--size" && v) {
      o.tiny = std::string(v) == "tiny", ++i;
    } else if (a == "--corrupt-reference") {
      o.corrupt_reference = true;
    } else {
      return usage();
    }
  }
  if (o.work_dir.empty() || o.seconds <= 0) return usage();
  std::map<std::string, void (*)(RunState&)> workloads = {
      {"bh_dense", run_bh_dense},
      {"archive_mixed", run_archive_mixed},
      {"live_paced", run_live_paced},
      {"fabric_feed", run_fabric_feed},
  };
  auto it = workloads.find(o.workload);
  if (it == workloads.end()) return usage();
  fs::remove_all(o.work_dir);
  fs::create_directories(o.work_dir);
  int cpu = pin_to_one_cpu();
  if (cpu < 0) {
    std::fprintf(stderr, "cannot pin to one CPU\n");
    return 1;
  }

  RunState rs;
  rs.opt = o;
  std::uint64_t t0 = now_ns();
  it->second(rs);
  double elapsed = secs(t0, now_ns());

  const Accounting& acct = rs.acct;
  double failed_ratio = static_cast<double>(acct.failed()) /
                        static_cast<double>(std::max<std::uint64_t>(acct.attempted(), 1));
  std::printf("workload=%s seed=%llu trials=%d cpu=%d "
              "updates_per_trial=%llu gen.bh_share=%.4f elapsed_s=%.1f\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              rs.trials, cpu,
              static_cast<unsigned long long>(rs.updates_per_trial),
              rs.bh_share, elapsed);
  std::printf("failed_op_ratio=%.6g (failed %llu / attempted %llu: refused "
              "%llu, queries failed %llu, missing %llu, extra %llu, lost "
              "%llu, shed %llu)\n",
              failed_ratio, static_cast<unsigned long long>(acct.failed()),
              static_cast<unsigned long long>(acct.attempted()),
              static_cast<unsigned long long>(acct.pushes_refused),
              static_cast<unsigned long long>(acct.queries_failed),
              static_cast<unsigned long long>(acct.missing),
              static_cast<unsigned long long>(acct.extra),
              static_cast<unsigned long long>(acct.lost),
              static_cast<unsigned long long>(acct.shed));
  for (const auto& p : acct.problems) std::printf("FAILED: %s\n", p.c_str());

  std::vector<MetricOut> metrics;
  if (!o.trace) {
    const Samples& s = rs.kept[0];
    metrics = {
        {"setup_s", "s", s.med("setup_s")},
        {"ingest_updates_per_s", "1/s", s.med("ingest_updates_per_s")},
        {"cpu_us_per_update", "us", s.med("cpu_us_per_update")},
    };
    std::printf("close_s=%.6g peak_rss_mb=%.6g\n", s.med("close_s"),
                s.med("peak_rss_mb"));
    if (o.workload == "live_paced") {
      std::printf("close_latency_ms p50=%.4f p99=%.4f (n=%zu)  "
                  "query_latency_ms p50=%.4f p99=%.4f (n=%zu)  "
                  "gen.lag_ms p99=%.4f max=%.4f\n",
                  s.pct("pool.close_latency_ms", 0.5),
                  s.pct("pool.close_latency_ms", 0.99),
                  s.get("pool.close_latency_ms").size(),
                  s.pct("pool.query_latency_ms", 0.5),
                  s.pct("pool.query_latency_ms", 0.99),
                  s.get("pool.query_latency_ms").size(),
                  s.pct("pool.lag_ms", 0.99), s.pct("pool.lag_ms", 1.0));
    }
  } else {
    const Samples& t = rs.kept[1];
    const Samples& once = rs.once;
    const Samples& u = rs.kept[0];
    double overhead;
    if (o.workload == "live_paced") {
      double traced_p50 = t.pct("pool.close_latency_ms", 0.5);
      double untraced_p50 = u.pct("pool.close_latency_ms", 0.5);
      overhead = untraced_p50 > 0 ? (traced_p50 - untraced_p50) / untraced_p50 * 100
                                  : 0.0;
    } else {
      double traced_rate = t.med("ingest_updates_per_s");
      double untraced_rate = u.med("ingest_updates_per_s");
      overhead = untraced_rate > 0
                     ? (untraced_rate - traced_rate) / untraced_rate * 100
                     : 0.0;
    }
    metrics = {
        {"close_s", "s", t.med("close_s")},
        {"peak_rss_mb", "MiB", t.med("peak_rss_mb")},
        {"core.study_s", "s", t.med("core.study_s")},
        {"workload.replay_s", "s", t.med("workload.replay_s")},
        {"api.start_s", "s", t.med("api.start_s")},
        {"bgp.decode_ns_per_update", "ns", t.med("bgp.decode_ns_per_update")},
        {"stream.source_next_ns", "ns", once.med("stream.source_next_ns")},
        {"api.push_ns_p50", "ns", t.med("api.push_ns_p50")},
        {"api.push_ns_p99", "ns", t.med("api.push_ns_p99")},
        {"stream.producer_cpu_share", "ratio",
         t.med("stream.producer_cpu_share")},
        {"stream.producer_allocs_per_update", "count",
         t.med("stream.producer_allocs_per_update")},
        {"stream.drain_wait_ms", "ms", t.med("stream.drain_wait_ms")},
        {"stream.worker_cpu_us_per_update", "us",
         t.med("stream.worker_cpu_us_per_update")},
        {"core.seq_ns_per_update", "ns", once.med("core.seq_ns_per_update")},
        {"stream.speedup_vs_sequential", "ratio",
         t.med("stream.speedup_vs_sequential")},
        {"gen.bh_share", "ratio", rs.bh_share},
        {"gen.updates", "count", static_cast<double>(rs.updates_per_trial)},
        {"storage.persisted_ingest_updates_per_s", "1/s",
         once.med("storage.persisted_ingest_updates_per_s")},
        {"storage.bytes_per_event", "B", once.med("storage.bytes_per_event")},
        {"storage.segments", "count", once.med("storage.segments")},
        {"storage.reopen_s", "s", once.med("storage.reopen_s")},
        {"storage.reopen_query_ms", "ms", once.med("storage.reopen_query_ms")},
        {"recovery.cadence_checkpoints", "count",
         once.med("recovery.cadence_checkpoints")},
        {"recovery.checkpoint_ms", "ms", once.med("recovery.checkpoint_ms")},
        {"recovery.recover_s", "s", once.med("recovery.recover_s")},
        {"api.sink_events", "count", t.med("api.sink_events")},
        {"api.flush_ms", "ms", t.med("api.flush_ms")},
        {"gen.lag_ms_p99", "ms", t.pct("pool.lag_ms", 0.99)},
        {"gen.lag_ms_max", "ms", t.pct("pool.lag_ms", 1.0)},
        {"close_latency_ms_p50", "ms", t.pct("pool.close_latency_ms", 0.5)},
        {"close_latency_ms_p99", "ms", t.pct("pool.close_latency_ms", 0.99)},
        {"query_latency_ms_p50", "ms", t.pct("pool.query_latency_ms", 0.5)},
        {"query_latency_ms_p99", "ms", t.pct("pool.query_latency_ms", 0.99)},
        {"telemetry.snapshot_ms", "ms", t.med("telemetry.snapshot_ms")},
        {"fabric.fleet_stats_ms", "ms", t.med("fabric.fleet_stats_ms")},
        {"fabric.push_ns_p50", "ns", t.med("fabric.push_ns_p50")},
        {"fabric.push_ns_p99", "ns", t.med("fabric.push_ns_p99")},
        {"fabric.drain_ms", "ms", t.med("fabric.drain_ms")},
        {"fabric.client_cpu_us_per_update", "us",
         t.med("fabric.client_cpu_us_per_update")},
        {"fabric.server_cpu_us_per_update", "us",
         t.med("fabric.server_cpu_us_per_update")},
        {"failed_op_ratio", "ratio", failed_ratio},
        {"trace.overhead_pct", "%", overhead},
    };
    if (!g_tracer.write(o.work_dir + "/spans.json")) {
      std::fprintf(stderr, "cannot write spans\n");
    }
  }
  for (const auto& m : metrics) {
    std::printf("  %-36s %16s %s\n", m.name.c_str(), fmt(m.value).c_str(),
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += acct.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(acct.attempted());
  json += ", \"failed\": " + std::to_string(acct.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            fmt(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return acct.correct ? 0 : 1;
}
