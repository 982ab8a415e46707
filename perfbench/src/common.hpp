// Shared pieces of the pef_perfbench program: clocks and statistics, the
// seeded input generator's RNG, the metric sink, the span tracer, and child
// process helpers.  Everything here is the benchmark's own code; the program
// under test is only reached through its public headers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <sys/types.h>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return seconds_between(start, Clock::now());
}

/// True when one more iteration, as long as the mean one so far, still ends
/// within `budget_s` of `start` (always true before the first), so a run
/// stays inside its time budget instead of overshooting it by up to a pass.
[[nodiscard]] inline bool time_for_another(Clock::time_point start,
                                           double budget_s, std::size_t done) {
  const double elapsed = seconds_since(start);
  return done == 0 ||
         elapsed + elapsed / static_cast<double>(done) <= budget_s;
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}
/// The median over passes of each pass's q-quantile.  Latency quantiles are
/// taken within a pass, so one slow pass moves them no more than it moves
/// the median pass wall; pooled over passes, the top 1% would come from the
/// slowest pass alone.
[[nodiscard]] double median_of_quantiles(
    const std::vector<std::vector<double>>& passes, double q);
/// "n=N p25/p50/p75=a/b/c ms" for a sample of durations in seconds.
[[nodiscard]] std::string describe_ms(const std::vector<double>& seconds);

/// splitmix64: the generator every workload input is drawn from, so one
/// --seed fixes every spec, seed list, pool entry and request order.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, bound).
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Metrics in emission order, each with its unit.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] bool has(const std::string& name) const;
  /// The value of a metric already added; 0 when absent.
  [[nodiscard]] double value(const std::string& name) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// In-memory span recorder.  A span is (name, start, end, parent, request);
/// the layer of a span is its name up to the first '.'.  When disabled,
/// begin() returns -1 and end() ignores it, so untraced runs pay one branch.
class Tracer {
 public:
  static constexpr std::int64_t kNoSpan = -1;
  /// Parent = the innermost span this thread has open.
  static constexpr std::int64_t kAutoParent = -2;

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  std::int64_t begin(const std::string& name, std::uint64_t request = 0,
                     std::int64_t parent = kAutoParent);
  void end(std::int64_t id);

  /// Self time per layer (span duration minus the union of its children's
  /// intervals), summed over spans, in seconds.
  [[nodiscard]] std::map<std::string, double> self_seconds_by_layer() const;
  [[nodiscard]] std::map<std::string, std::uint64_t> span_counts_by_layer()
      const;
  [[nodiscard]] std::size_t span_count() const;
  /// One JSON object per line: id, name, layer, start_ns, end_ns, parent,
  /// request, thread.
  bool write_jsonl(const std::string& path) const;

  class Scope {
   public:
    Scope(Tracer& tracer, const std::string& name, std::uint64_t request = 0,
          std::int64_t parent = kAutoParent)
        : tracer_(tracer), id_(tracer.begin(name, request, parent)) {}
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::int64_t id() const { return id_; }

   private:
    Tracer& tracer_;
    std::int64_t id_;
  };

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
    std::int64_t parent = kNoSpan;
    std::uint64_t request = 0;
    std::uint64_t thread = 0;
  };
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// A spawned child process.  wait() reaps it and returns its rusage; the
/// destructor kills and reaps a child nobody waited for.
class Child {
 public:
  Child() = default;
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// fork + exec argv[0] with `argv`; stdout/stderr go to `log_path`
  /// (appended) when non-empty.  False when fork fails.
  bool spawn(const std::vector<std::string>& argv, const std::string& log_path);
  /// Block until exit.  Returns the exit code (128 + signal when killed)
  /// and fills *usage (ru_maxrss covers the child and its reaped
  /// descendants).
  int wait(rusage* usage);
  /// SIGTERM to a running child (no-op once reaped).
  void terminate();

 private:
  pid_t pid_ = -1;
};

[[nodiscard]] double max_rss_mb(const rusage& usage);
[[nodiscard]] double self_peak_rss_mb();

bool write_file(const std::string& path, const std::string& content);
[[nodiscard]] bool read_file(const std::string& path, std::string* out);
/// mkdir -p.
bool make_dirs(const std::string& path);
/// rm -rf of a directory the benchmark created.
void remove_tree(const std::string& path);

}  // namespace perfbench
