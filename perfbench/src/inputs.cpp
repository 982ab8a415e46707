// Seeded workload inputs, and the pef_serve plumbing shared by the serve
// workload and the serve probe.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <numeric>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "bench.hpp"
#include "engine/sweep_runner.hpp"
#include "serve/client.hpp"

namespace perfbench {

using pef::AdversaryConfig;
using pef::AdversaryKind;
using pef::ExecutionModel;
using pef::adversary_config;

namespace {

std::vector<std::uint64_t> draw_seeds(Rng& rng, std::size_t count) {
  std::vector<std::uint64_t> seeds;
  while (seeds.size() < count) {
    const std::uint64_t seed = 1 + rng.below(1u << 30);
    if (std::find(seeds.begin(), seeds.end(), seed) == seeds.end()) {
      seeds.push_back(seed);
    }
  }
  return seeds;
}

const std::vector<ExecutionModel> kAllModels = {
    ExecutionModel::kFsync, ExecutionModel::kSsync, ExecutionModel::kAsync};

}  // namespace

const std::vector<AdversaryConfig>& probe_adversaries() {
  static const std::vector<AdversaryConfig> adversaries = {
      adversary_config(AdversaryKind::kStatic),
      adversary_config(AdversaryKind::kPeriodic, {{"period", 5}, {"duty", 3}}),
      adversary_config(AdversaryKind::kTInterval, {{"interval", 4}}),
      adversary_config(AdversaryKind::kBernoulli, {{"p", 0.7}}),
      adversary_config(AdversaryKind::kMarkov,
                       {{"p_fail", 0.2}, {"p_recover", 0.4}}),
      adversary_config(AdversaryKind::kBoundedAbsence),
      adversary_config(AdversaryKind::kGreedyBlocker),
  };
  return adversaries;
}

const std::vector<ExecutionModel>& probe_models() { return kAllModels; }

std::string adversary_slug(const AdversaryConfig& config) {
  return pef::adversary_kind_info(config.kind).name;
}

pef::SweepSpec stochastic_sweep(std::uint64_t seed, bool tiny) {
  Rng rng(seed ^ 0x5eed0001ull);
  pef::SweepSpec spec;
  spec.algorithms = {"pef3+"};
  const auto& all = probe_adversaries();
  spec.adversaries = {all[3], all[4], all[5], all[6]};
  spec.models = kAllModels;
  spec.ring_sizes = tiny ? std::vector<std::uint32_t>{12, 16}
                         : std::vector<std::uint32_t>{64, 256};
  spec.robot_counts = tiny ? std::vector<std::uint32_t>{3}
                           : std::vector<std::uint32_t>{3, 8};
  spec.seeds = draw_seeds(rng, tiny ? 2 : 16);
  spec.horizon = tiny ? 200 : 2000;
  return spec;
}

pef::SweepSpec crowded_sweep(std::uint64_t seed, bool tiny) {
  Rng rng(seed ^ 0x5eed0002ull);
  pef::SweepSpec spec;
  spec.algorithms = {"pef3+", "keep-direction"};
  const auto& all = probe_adversaries();
  spec.adversaries = {all[0], all[1], all[2]};
  spec.models = {ExecutionModel::kFsync};
  spec.ring_sizes = tiny ? std::vector<std::uint32_t>{24}
                         : std::vector<std::uint32_t>{128, 512};
  spec.robot_counts = tiny ? std::vector<std::uint32_t>{8}
                           : std::vector<std::uint32_t>{16, 64};
  spec.seeds = draw_seeds(rng, tiny ? 2 : 16);
  spec.horizon = tiny ? 2000 : 20000;
  spec.fast_forward = true;
  return spec;
}

ServeLoad serve_load(std::uint64_t seed, bool tiny) {
  Rng rng(seed ^ 0x5eed0003ull);
  ServeLoad load;
  const auto& adversaries = probe_adversaries();
  const std::vector<std::string> algorithms = {
      "pef3+", "keep-direction", "bounce", "oscillating", "random-walk"};

  // Scenarios: the full stratified cross product of shape axes, with the
  // algorithm and robot count cycling over the strata, so the pool's total
  // work does not depend on the seed; the seed picks each scenario's RNG
  // seed (and, below, which entries are hot and the request order).
  const std::vector<std::uint32_t> sizes =
      tiny ? std::vector<std::uint32_t>{16}
           : std::vector<std::uint32_t>{16, 32, 64, 128, 256};
  const std::vector<pef::Time> horizons =
      tiny ? std::vector<pef::Time>{200}
           : std::vector<pef::Time>{1000, 3000, 10000};
  std::uint32_t index = 0;
  for (const std::uint32_t n : sizes) {
    for (const pef::Time horizon : horizons) {
      for (const ExecutionModel model : kAllModels) {
        for (const AdversaryConfig& adversary : adversaries) {
          pef::ScenarioSpec spec;
          spec.nodes = n;
          spec.robots = 3 + index % 4;
          spec.algorithm = algorithms[index % algorithms.size()];
          spec.adversary = adversary;
          spec.model = model;
          spec.horizon = horizon;
          spec.seed = 1 + rng.below(1u << 30);
          load.pool.push_back({spec.to_json(), false, horizon});
          ++index;
        }
      }
    }
  }

  // Small sweeps (<= 64 cells), one adversary pair per slot.
  const std::size_t sweeps = tiny ? 2 : 8;
  for (std::size_t j = 0; j < sweeps; ++j) {
    pef::SweepSpec spec;
    spec.algorithms = {"pef3+", "bounce"};
    spec.adversaries = {adversaries[j % adversaries.size()],
                        adversaries[(j + 3) % adversaries.size()]};
    spec.models = j % 2 == 0
                      ? std::vector<ExecutionModel>{ExecutionModel::kFsync,
                                                    ExecutionModel::kSsync}
                      : std::vector<ExecutionModel>{ExecutionModel::kFsync,
                                                    ExecutionModel::kAsync};
    spec.ring_sizes = tiny ? std::vector<std::uint32_t>{8}
                           : std::vector<std::uint32_t>{16, 32};
    spec.robot_counts = {3};
    spec.seeds = draw_seeds(rng, tiny ? 1 : 4);
    spec.horizon = tiny ? 200 : 1000;
    const std::uint64_t cells = pef::count_sweep_cells(spec);
    load.pool.push_back({spec.to_json(), true, cells * spec.horizon});
  }

  // Requests: every pool entry once, in a fixed order that interleaves the
  // cost strata and on evenly spaced slots (so the computed work, and
  // nearly its pacing, are the same at every seed); the other slots are
  // Zipf(1) repeats over a seeded rank order.
  // A third of the requests repeat an entry, so the median request is a
  // computed one.  With most requests cache hits, the median was a hit's
  // ~0.2 ms of connection set-up and thread hand-offs, which moved half
  // again as much as the pass wall when the host's load changed.
  const std::size_t pool = load.pool.size();
  const std::size_t total = tiny ? 60 : 480;
  std::vector<std::uint32_t> rank(pool);
  for (std::size_t i = 0; i < pool; ++i) rank[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = pool; i > 1; --i) std::swap(rank[i - 1], rank[rng.below(i)]);
  std::vector<double> cumulative(pool);
  double sum = 0;
  for (std::size_t r = 0; r < pool; ++r) {
    sum += 1.0 / static_cast<double>(r + 1);
    cumulative[r] = sum;
  }
  std::size_t stride = 97;
  while (std::gcd(stride, pool) != 1) ++stride;
  std::vector<bool> cold_slot(total, false);
  for (std::size_t j = 0; j < pool; ++j) cold_slot[j * total / pool] = true;
  std::size_t next_cold = 0;
  for (std::size_t slot = 0; slot < total; ++slot) {
    if (cold_slot[slot]) {
      load.requests.push_back(
          static_cast<std::uint32_t>(next_cold++ * stride % pool));
      continue;
    }
    const double draw = rng.uniform() * sum;
    const auto r = static_cast<std::size_t>(
        std::lower_bound(cumulative.begin(), cumulative.end(), draw) -
        cumulative.begin());
    load.requests.push_back(rank[std::min(r, pool - 1)]);
  }
  return load;
}

pef::SweepSpec parse_sweep_or_die(const std::string& text) {
  std::string error;
  auto spec = pef::parse_sweep_spec(text, &error);
  if (!spec) {
    std::cerr << "perfbench: generated spec does not parse: " << error << "\n";
    std::exit(3);
  }
  if (const auto invalid = spec->validate()) {
    std::cerr << "perfbench: generated spec is invalid: " << *invalid << "\n";
    std::exit(3);
  }
  return *spec;
}

std::string format_ms(double seconds) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.3f ms", seconds * 1e3);
  return buffer;
}

// ---------------------------------------------------------------------------
// Daemon

namespace {

/// One raw connect attempt (no retry delay, so set-up time is not
/// quantized by the client library's 100 ms back-off).
bool accepts(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof addr.sun_path) return false;
  std::copy(socket_path.begin(), socket_path.end(), addr.sun_path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return false;
  const bool ok = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                            sizeof addr) == 0;
  ::close(fd);
  return ok;
}

}  // namespace

Daemon::~Daemon() {
  if (running_) {
    double ignored = 0;
    (void)stop(&ignored);
  }
}

double Daemon::start(const RunConfig& config, const std::string& dir) {
  if (!make_dirs(dir + "/cache")) return -1;
  socket_ = dir + "/d.sock";
  const auto t0 = Clock::now();
  // One single-threaded worker leaves three cores to the closed-loop clients
  // and the daemon's connection threads (workers x threads <= 4); with two
  // workers next to them, hit latency followed the host's load.
  if (!child_.spawn({config.bin_dir + "/pef_serve", "--socket", socket_,
                     "--cache-dir", dir + "/cache", "--workers", "1",
                     "--threads", "1"},
                    dir + "/daemon.log")) {
    return -1;
  }
  running_ = true;
  while (!accepts(socket_)) {
    if (seconds_since(t0) > 30) return -1;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return seconds_since(t0);
}

bool Daemon::stats(ServeCounters* out) {
  pef::serve::Client client;
  std::string error;
  if (!client.connect_unix(socket_, 10, &error)) return false;
  const auto response = client.request("{\"op\":\"stats\"}", &error);
  const pef::JsonValue* stats = response ? response->find("stats") : nullptr;
  if (stats == nullptr) return false;
  const auto field = [stats](const char* key) -> std::uint64_t {
    const pef::JsonValue* value = stats->find(key);
    return value != nullptr && value->is_uint ? value->uint_value : 0;
  };
  out->submits = field("submits");
  out->cache_hits = field("cache_hits");
  out->coalesced = field("coalesced");
  out->cells_computed = field("cells_computed");
  return true;
}

int Daemon::stop(double* peak_rss_mb) {
  if (!running_) return -1;
  running_ = false;
  {
    pef::serve::Client client;
    std::string error;
    // A daemon that cannot take the shutdown op gets SIGTERM, which drains
    // it the same way, so the wait below cannot hang.
    if (!client.connect_unix(socket_, 10, &error) ||
        !client.request("{\"op\":\"shutdown\"}", &error)) {
      child_.terminate();
    }
  }
  rusage usage{};
  const int code = child_.wait(&usage);
  *peak_rss_mb = max_rss_mb(usage);
  return code;
}

// ---------------------------------------------------------------------------
// One timed submit conversation

RequestTiming timed_submit(const std::string& socket_path,
                           const std::string& spec_text, Tracer& tracer,
                           std::uint64_t request, std::int64_t parent) {
  RequestTiming timing;
  pef::serve::Client client;
  const auto t0 = Clock::now();
  {
    Tracer::Scope span(tracer, "serve.connect", request, parent);
    if (!client.connect_unix(socket_path, 10, &timing.error)) return timing;
  }
  const auto t1 = Clock::now();
  pef::JsonWriter submit;
  submit.begin_object();
  submit.field("op", "submit");
  submit.field("spec_text", spec_text);
  submit.end_object();
  {
    Tracer::Scope span(tracer, "serve.ack", request, parent);
    if (!client.send_frame(submit.str(), &timing.error)) return timing;
    const auto ack = client.read_frame_payload(&timing.error);
    if (!ack) return timing;
    const auto parsed = pef::parse_json(*ack, &timing.error);
    const pef::JsonValue* ok = parsed ? parsed->find("ok") : nullptr;
    if (ok == nullptr || !ok->is_bool() || !ok->bool_value) {
      timing.error = "submission refused: " + *ack;
      return timing;
    }
  }
  const auto t2 = Clock::now();
  {
    Tracer::Scope span(tracer, "serve.wait", request, parent);
    for (;;) {
      const auto frame = client.read_frame_payload(&timing.error);
      if (!frame) {
        if (timing.error.empty()) timing.error = "closed before the result";
        return timing;
      }
      const auto event = pef::parse_json(*frame, &timing.error);
      const pef::JsonValue* kind = event ? event->find("event") : nullptr;
      if (kind == nullptr || !kind->is_string()) {
        timing.error = "unexpected frame: " + *frame;
        return timing;
      }
      if (kind->string_value == "result") {
        const pef::JsonValue* cached = event->find("cached");
        timing.cached = cached != nullptr && cached->is_bool() &&
                        cached->bool_value;
        break;
      }
    }
  }
  const auto t3 = Clock::now();
  {
    Tracer::Scope span(tracer, "serve.transfer", request, parent);
    auto payload = client.read_frame_payload(&timing.error);
    if (!payload) return timing;
    timing.result = std::move(*payload);
  }
  const auto t4 = Clock::now();
  timing.connect_s = seconds_between(t0, t1);
  timing.ack_s = seconds_between(t1, t2);
  timing.wait_s = seconds_between(t2, t3);
  timing.transfer_s = seconds_between(t3, t4);
  timing.total_s = seconds_between(t0, t4);
  timing.ok = true;
  return timing;
}

}  // namespace perfbench
