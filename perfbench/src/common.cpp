#include "common.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/json.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(position));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * fraction;
}

double median_of_quantiles(const std::vector<std::vector<double>>& passes,
                           double q) {
  std::vector<double> per_pass;
  for (const std::vector<double>& pass : passes) {
    if (!pass.empty()) per_pass.push_back(quantile(pass, q));
  }
  return median(per_pass);
}

std::string describe_ms(const std::vector<double>& seconds) {
  char buffer[96];
  std::snprintf(buffer, sizeof buffer, "n=%zu p25/p50/p75=%.4f/%.4f/%.4f ms",
                seconds.size(), quantile(seconds, 0.25) * 1e3,
                quantile(seconds, 0.5) * 1e3, quantile(seconds, 0.75) * 1e3);
  return buffer;
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void Metrics::add(const std::string& name, double value,
                  const std::string& unit) {
  for (Entry& entry : entries_) {
    if (entry.name == name) {
      entry.value = value;
      entry.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

bool Metrics::has(const std::string& name) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&name](const Entry& e) { return e.name == name; });
}

double Metrics::value(const std::string& name) const {
  for (const Entry& entry : entries_) {
    if (entry.name == name) return entry.value;
  }
  return 0;
}

std::string Metrics::to_json() const {
  pef::JsonWriter json;
  json.begin_object();
  for (const Entry& entry : entries_) {
    json.begin_object(entry.name);
    json.field("value", std::isfinite(entry.value) ? entry.value : 0.0);
    json.field("unit", entry.unit);
    json.end_object();
  }
  json.end_object();
  return json.str();
}

// ---------------------------------------------------------------------------
// Tracer

namespace {
// Open spans per thread, innermost last (a span's default parent).
thread_local std::vector<std::int64_t> open_spans;

std::uint64_t thread_tag() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

std::string layer_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}
}  // namespace

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::int64_t Tracer::begin(const std::string& name, std::uint64_t request,
                           std::int64_t parent) {
  if (!enabled_) return kNoSpan;
  if (parent == kAutoParent) {
    parent = open_spans.empty() ? kNoSpan : open_spans.back();
  }
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  span.thread = thread_tag();
  std::int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(std::move(span));
    spans_.back().start_ns = now_ns();
  }
  open_spans.push_back(id);
  return id;
}

void Tracer::end(std::int64_t id) {
  if (id < 0) return;
  const std::int64_t stamp = now_ns();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end_ns = stamp;
  }
  const auto it = std::find(open_spans.rbegin(), open_spans.rend(), id);
  if (it != open_spans.rend()) open_spans.erase(std::next(it).base());
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_ns < span.start_ns) continue;  // never closed
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    for (const std::size_t c : children[i]) {
      const Span& child = spans_[c];
      if (child.end_ns < child.start_ns) continue;
      covered.emplace_back(std::max(child.start_ns, span.start_ns),
                           std::min(child.end_ns, span.end_ns));
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t covered_ns = 0;
    std::int64_t reach = span.start_ns;
    for (const auto& [lo, hi] : covered) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) {
        covered_ns += hi - from;
        reach = hi;
      }
    }
    self[layer_of(span.name)] +=
        static_cast<double>(span.end_ns - span.start_ns - covered_ns) * 1e-9;
  }
  return self;
}

std::map<std::string, std::uint64_t> Tracer::span_counts_by_layer() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, std::uint64_t> counts;
  for (const Span& span : spans_) ++counts[layer_of(span.name)];
  return counts;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    pef::JsonWriter json;
    json.begin_object();
    json.field("id", static_cast<std::uint64_t>(i));
    json.field("name", span.name);
    json.field("layer", layer_of(span.name));
    json.field("start_ns", static_cast<std::int64_t>(span.start_ns));
    json.field("end_ns", static_cast<std::int64_t>(span.end_ns));
    json.field("parent", static_cast<std::int64_t>(span.parent));
    json.field("request", span.request);
    json.field("thread", span.thread);
    json.end_object();
    out << json.str() << "\n";
  }
  return out.good();
}

// ---------------------------------------------------------------------------
// Child processes

Child::~Child() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
}

bool Child::spawn(const std::vector<std::string>& argv,
                  const std::string& log_path) {
  std::vector<char*> args;
  args.reserve(argv.size() + 1);
  for (const std::string& arg : argv) {
    args.push_back(const_cast<char*>(arg.c_str()));
  }
  args.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    if (!log_path.empty()) {
      const int fd =
          ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
        ::close(fd);
      }
    }
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  pid_ = pid;
  return true;
}

void Child::terminate() {
  if (pid_ > 0) ::kill(pid_, SIGTERM);
}

int Child::wait(rusage* usage) {
  if (pid_ <= 0) return -1;
  int status = 0;
  rusage local{};
  pid_t got = -1;
  do {
    got = ::wait4(pid_, &status, 0, &local);
  } while (got < 0 && errno == EINTR);
  pid_ = -1;
  if (usage != nullptr) *usage = local;
  if (got < 0) return -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

double max_rss_mb(const rusage& usage) {
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double self_peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return max_rss_mb(usage);
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) return false;
  out << content;
  return out.good();
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

bool make_dirs(const std::string& path) {
  std::error_code error;
  std::filesystem::create_directories(path, error);
  return !error;
}

void remove_tree(const std::string& path) {
  std::error_code error;
  std::filesystem::remove_all(path, error);
}

}  // namespace perfbench
