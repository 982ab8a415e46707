// Tests for the pef_serve subsystem (src/serve/): the framed protocol's
// failure paths, the LRU result cache and its persistence, the in-process
// Server end-to-end (submit, coalesce, cache hit, disconnect mid-stream,
// warm restart), and the real pef_serve + pef_client binaries pinned
// against the golden sweep baseline.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include <unistd.h>

#include "common/json.hpp"
#include "core/spec.hpp"
#include "engine/sweep_runner.hpp"
#include "orchestrator/ledger.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace pef::serve {
namespace {

namespace fs = std::filesystem;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// A fresh per-test scratch directory.
std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "pef_serve_" + name + "_" +
                          std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Unix socket paths are capped near 108 bytes, so sockets live directly
/// under /tmp rather than in the (potentially deep) TempDir.
std::string fresh_socket(const std::string& name) {
  const std::string path =
      "/tmp/pef_" + name + "_" + std::to_string(::getpid()) + ".sock";
  ::unlink(path.c_str());
  return path;
}

/// A sweep small enough to run in milliseconds but real enough to exercise
/// the batched engine path.
std::string small_sweep_text() {
  return R"({"algorithms":["pef3+"],)"
         R"("adversaries":[{"kind":"static","params":{}}],)"
         R"("models":["fsync"],"ring_sizes":[6],"robot_counts":[3],)"
         R"("seeds":[1,2],"horizon":200})";
}

/// An in-process daemon for one test: started on construction, drained on
/// destruction.
struct TestServer {
  explicit TestServer(ServerOptions options) : server(std::move(options)) {
    std::string error;
    started = server.start(&error);
    EXPECT_TRUE(started) << error;
    if (started) {
      serve_thread = std::thread([this] { clean = server.serve(); });
    }
  }

  ~TestServer() { drain(); }

  void drain() {
    if (!serve_thread.joinable()) return;
    server.request_shutdown();
    serve_thread.join();
  }

  Server server;
  bool started = false;
  bool clean = false;
  std::thread serve_thread;
};

ServerOptions base_options(const std::string& tag) {
  ServerOptions options;
  options.socket_path = fresh_socket(tag);
  options.workers = 2;
  options.sweep_threads = 2;
  return options;
}

// ---------------------------------------------------------------------------
// ResultCache

TEST(ResultCacheTest, LruEvictionUnderByteBudget) {
  // Budget of 2 entries' worth: inserting a third evicts the least
  // recently used.
  ResultCache cache(2 * (1 + 10), "");
  cache.insert("a", "0123456789");
  cache.insert("b", "0123456789");
  EXPECT_TRUE(cache.lookup("a").has_value());  // bump "a" to MRU
  cache.insert("c", "0123456789");             // evicts "b"

  EXPECT_TRUE(cache.lookup("a").has_value());
  EXPECT_FALSE(cache.lookup("b").has_value());
  EXPECT_TRUE(cache.lookup("c").has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.stats().bytes, 2u * 11u);
}

TEST(ResultCacheTest, EntryLargerThanBudgetIsNeverCached) {
  ResultCache cache(8, "");
  cache.insert("key", "a result far larger than eight bytes");
  EXPECT_FALSE(cache.lookup("key").has_value());
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(ResultCacheTest, PersistsAndReloadsNamedByLedgerHash) {
  const std::string dir = fresh_dir("cache_persist");
  const std::string key = R"({"spec":"canonical"})";
  {
    ResultCache cache(1 << 20, dir);
    cache.insert(key, "result-bytes");
    // File name = fnv1a64 hex of the key — the ledger's spec-hash
    // convention, so a cache directory is greppable by spec hash.
    char expected[17];
    std::snprintf(expected, sizeof expected, "%016llx",
                  static_cast<unsigned long long>(fnv1a64(key)));
    EXPECT_EQ(cache.entry_path(key),
              dir + "/" + std::string(expected) + ".entry");
    EXPECT_TRUE(fs::exists(cache.entry_path(key)));
  }
  ResultCache reloaded(1 << 20, dir);
  EXPECT_EQ(reloaded.load_from_disk(nullptr), 1u);
  EXPECT_EQ(reloaded.lookup(key).value_or(""), "result-bytes");
  EXPECT_EQ(reloaded.stats().reloaded, 1u);

  // A directory over the reload budget shrinks to fit.
  ResultCache tiny(4, dir);
  EXPECT_EQ(tiny.load_from_disk(nullptr), 1u);
  EXPECT_EQ(tiny.stats().entries, 0u);
}

TEST(ResultCacheTest, HashCollisionDoesNotClobberPersistedEntries) {
  const std::string dir = fresh_dir("cache_collision");
  const std::string key = R"({"spec":"ours"})";
  std::string base_slot;
  std::string our_slot;
  {
    ResultCache cache(1 << 20, dir);
    // Forge an occupant of the key's base slot holding a DIFFERENT key —
    // the on-disk shape of a 64-bit hash collision.
    base_slot = cache.entry_path(key);  // nothing stored yet: the base name
    std::ofstream impostor(base_slot, std::ios::binary);
    impostor << "impostor-key\nimpostor-value\n";
    impostor.close();
    cache.insert(key, "our-value");
    // The insert stepped to the next suffixed slot instead of overwriting.
    our_slot = cache.entry_path(key);
    EXPECT_NE(our_slot, base_slot);
    EXPECT_NE(read_file(base_slot).find("impostor-value"),
              std::string::npos);
    EXPECT_NE(read_file(our_slot).find("our-value"), std::string::npos);
  }

  // A warm restart restores BOTH entries.
  ResultCache reloaded(1 << 20, dir);
  EXPECT_EQ(reloaded.load_from_disk(nullptr), 2u);
  EXPECT_EQ(reloaded.lookup(key).value_or(""), "our-value");
  EXPECT_EQ(reloaded.lookup("impostor-key").value_or(""), "impostor-value");

  // Evicting ours unlinks OUR slot, never the impostor's.
  {
    ResultCache tiny(4, dir);  // over budget: insert evicts immediately
    tiny.insert(key, "our-value");
  }
  EXPECT_FALSE(fs::exists(our_slot));
  EXPECT_TRUE(fs::exists(base_slot));
  EXPECT_NE(read_file(base_slot).find("impostor-value"), std::string::npos);
}

TEST(ResultCacheTest, EvictionRemovesThePersistedFile) {
  const std::string dir = fresh_dir("cache_unpersist");
  ResultCache cache(2 * (1 + 4), dir);
  cache.insert("a", "aaaa");
  cache.insert("b", "bbbb");
  const std::string evicted_file = cache.entry_path("a");
  EXPECT_TRUE(fs::exists(evicted_file));
  cache.insert("c", "cccc");  // evicts "a"
  EXPECT_FALSE(fs::exists(evicted_file));
  EXPECT_TRUE(fs::exists(cache.entry_path("c")));
}

// ---------------------------------------------------------------------------
// Protocol failure paths (in-process server, raw client frames)

TEST(ServeProtocolTest, MalformedFrameGetsErrorThenClose) {
  TestServer daemon(base_options("malformed"));
  ASSERT_TRUE(daemon.started);

  Client client;
  std::string error;
  ASSERT_TRUE(client.connect_unix(daemon.server.socket_path(), 5, &error))
      << error;
  ASSERT_TRUE(client.send_frame("this is not json", &error)) << error;
  const auto response = client.read_frame_payload(&error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_NE(response->find("\"ok\":false"), std::string::npos) << *response;
  EXPECT_NE(response->find("malformed request frame"), std::string::npos)
      << *response;
  // The server closes after a malformed frame (framing trust is gone).
  EXPECT_FALSE(client.read_frame_payload(&error).has_value());
}

TEST(ServeProtocolTest, OversizedFrameIsRefusedWithoutReadingIt) {
  TestServer daemon(base_options("oversized"));
  ASSERT_TRUE(daemon.started);

  Client client;
  std::string error;
  ASSERT_TRUE(client.connect_unix(daemon.server.socket_path(), 5, &error))
      << error;
  // A length word claiming 1 GiB — no payload follows, and none is needed:
  // the server answers from the header alone.
  const std::uint32_t huge = 1u << 30;
  std::string header(4, '\0');
  header[0] = static_cast<char>(huge >> 24);
  header[1] = static_cast<char>(huge >> 16);
  header[2] = static_cast<char>(huge >> 8);
  header[3] = static_cast<char>(huge);
  ASSERT_TRUE(client.send_raw(header, &error)) << error;
  const auto response = client.read_frame_payload(&error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_NE(response->find("\"ok\":false"), std::string::npos) << *response;
  EXPECT_FALSE(client.read_frame_payload(&error).has_value());
}

TEST(ServeProtocolTest, InvalidSpecErrorCarriesLineAndColumn) {
  TestServer daemon(base_options("badspec"));
  ASSERT_TRUE(daemon.started);

  Client client;
  std::string error;
  ASSERT_TRUE(client.connect_unix(daemon.server.socket_path(), 5, &error))
      << error;
  // Syntax error on line 2: the submit error must preserve the JSON
  // parser's position so the client can point at the file.
  const std::string broken_spec = "{\n  \"algorithms\": [,]\n}";
  const auto result =
      client.submit_and_stream(broken_spec, nullptr, nullptr, nullptr,
                               &error);
  EXPECT_FALSE(result.has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("column"), std::string::npos) << error;

  // Semantic errors (well-formed JSON, invalid spec) are actionable too.
  const auto semantic = client.submit_and_stream(
      R"({"algorithms":["no-such-algorithm"],)"
      R"("adversaries":[{"kind":"static","params":{}}],)"
      R"("ring_sizes":[6],"robot_counts":[3],"seeds":[1]})",
      nullptr, nullptr, nullptr, &error);
  EXPECT_FALSE(semantic.has_value());
  EXPECT_NE(error.find("no-such-algorithm"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// End-to-end serving semantics (in-process)

TEST(ServeEndToEndTest, SubmitComputesThenIdenticalSubmitIsCacheHit) {
  TestServer daemon(base_options("cachehit"));
  ASSERT_TRUE(daemon.started);

  Client first;
  std::string error;
  ASSERT_TRUE(first.connect_unix(daemon.server.socket_path(), 5, &error))
      << error;
  bool cached = true;
  std::uint64_t progress_calls = 0;
  const auto result1 = first.submit_and_stream(
      small_sweep_text(),
      [&progress_calls](std::uint64_t, std::uint64_t, double) {
        ++progress_calls;
      },
      &cached, nullptr, &error);
  ASSERT_TRUE(result1.has_value()) << error;
  EXPECT_FALSE(cached);
  EXPECT_GT(progress_calls, 0u);

  // Whitespace/key-order variants canonicalize to the same cache key.
  Client second;
  ASSERT_TRUE(second.connect_unix(daemon.server.socket_path(), 5, &error))
      << error;
  const std::string reordered =
      R"({"seeds":[1,2],"horizon":200,"robot_counts":[3],"ring_sizes":[6],)"
      R"("models":["fsync"],)"
      R"("adversaries":[{"kind":"static","params":{}}],)"
      R"("algorithms":["pef3+"]})";
  const auto result2 =
      second.submit_and_stream(reordered, nullptr, &cached, nullptr, &error);
  ASSERT_TRUE(result2.has_value()) << error;
  EXPECT_TRUE(cached);
  EXPECT_EQ(*result1, *result2);

  const ServeStats stats = daemon.server.stats_snapshot();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.jobs_done, 1u);
  // The hit cost zero engine rounds: only the first submit computed its
  // 1 algo x 1 adversary x 1 model x 1 n x 1 k x 2 seeds = 2 cells.
  EXPECT_EQ(stats.cells_computed, 2u);
}

// A spec whose horizon outgrows BatchEngine's u32 visit cells validates, so
// the daemon must run it (on solo Engines) rather than abort mid-job.
TEST(ServeEndToEndTest, HorizonPastU32IsServedNotFatal) {
  TestServer daemon(base_options("bighorizon"));
  ASSERT_TRUE(daemon.started);

  std::string seeds;
  for (int seed = 1; seed <= 32; ++seed) {
    seeds += (seed > 1 ? "," : "") + std::to_string(seed);
  }
  const std::string text =
      R"({"algorithms":["pef3+"],)"
      R"("adversaries":[{"kind":"static","params":{}}],)"
      R"("ring_sizes":[16],"robot_counts":[3],"seeds":[)" +
      seeds + R"(],"horizon":5000000000,"batch_seeds":true,)"
      R"("fast_forward":true})";
  Client client;
  std::string error;
  ASSERT_TRUE(client.connect_unix(daemon.server.socket_path(), 5, &error))
      << error;
  const auto result =
      client.submit_and_stream(text, nullptr, nullptr, nullptr, &error);
  ASSERT_TRUE(result.has_value()) << error;

  auto spec = parse_sweep_spec(text, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  spec->batch_seeds = false;
  EXPECT_EQ(*result, SweepRunner(1).run(*spec).to_json());
}

TEST(ServeEndToEndTest, DisconnectMidStreamStillLandsInCache) {
  TestServer daemon(base_options("disconnect"));
  ASSERT_TRUE(daemon.started);

  // Submit, read only the ack, then vanish.
  {
    Client rude;
    std::string error;
    ASSERT_TRUE(rude.connect_unix(daemon.server.socket_path(), 5, &error))
        << error;
    JsonWriter submit;
    submit.begin_object();
    submit.field("op", "submit");
    submit.field("spec_text", small_sweep_text());
    submit.end_object();
    const auto ack = rude.request(submit.str(), &error);
    ASSERT_TRUE(ack.has_value()) << error;
    const JsonValue* ok = ack->find("ok");
    ASSERT_TRUE(ok != nullptr && ok->bool_value) << error;
    rude.disconnect();  // mid-stream: progress frames now hit a dead socket
  }

  // The job is the worker's, not the connection's: it completes and its
  // result lands in the cache.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (daemon.server.cache_stats_snapshot().insertions == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "job did not complete after client disconnect";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  Client polite;
  std::string error;
  ASSERT_TRUE(polite.connect_unix(daemon.server.socket_path(), 5, &error))
      << error;
  bool cached = false;
  const auto result = polite.submit_and_stream(small_sweep_text(), nullptr,
                                               &cached, nullptr, &error);
  ASSERT_TRUE(result.has_value()) << error;
  EXPECT_TRUE(cached);
}

TEST(ServeEndToEndTest, WarmRestartServesFromPersistedCache) {
  const std::string cache_dir = fresh_dir("warm_restart");
  std::string result_before;
  {
    ServerOptions options = base_options("warm1");
    options.cache_dir = cache_dir;
    TestServer daemon(options);
    ASSERT_TRUE(daemon.started);
    Client client;
    std::string error;
    ASSERT_TRUE(client.connect_unix(daemon.server.socket_path(), 5, &error))
        << error;
    const auto result = client.submit_and_stream(small_sweep_text(), nullptr,
                                                 nullptr, nullptr, &error);
    ASSERT_TRUE(result.has_value()) << error;
    result_before = *result;
    daemon.drain();
    EXPECT_TRUE(daemon.clean);
  }

  // A NEW daemon on the same cache dir serves the same bytes with zero
  // engine work.
  ServerOptions options = base_options("warm2");
  options.cache_dir = cache_dir;
  TestServer daemon(options);
  ASSERT_TRUE(daemon.started);
  EXPECT_GE(daemon.server.cache_reloaded(), 1u);

  Client client;
  std::string error;
  ASSERT_TRUE(client.connect_unix(daemon.server.socket_path(), 5, &error))
      << error;
  bool cached = false;
  const auto result = client.submit_and_stream(small_sweep_text(), nullptr,
                                               &cached, nullptr, &error);
  ASSERT_TRUE(result.has_value()) << error;
  EXPECT_TRUE(cached);
  EXPECT_EQ(*result, result_before);
  EXPECT_EQ(daemon.server.stats_snapshot().cells_computed, 0u);
}

TEST(ServeEndToEndTest, TinyCacheBudgetEvictsAndRecomputes) {
  ServerOptions options = base_options("tinycache");
  options.cache_bytes = 64;  // smaller than any spec key + result
  TestServer daemon(options);
  ASSERT_TRUE(daemon.started);

  Client client;
  std::string error;
  ASSERT_TRUE(client.connect_unix(daemon.server.socket_path(), 5, &error))
      << error;
  const auto result1 = client.submit_and_stream(small_sweep_text(), nullptr,
                                                nullptr, nullptr, &error);
  ASSERT_TRUE(result1.has_value()) << error;
  // Nothing fits the budget, so the identical submit recomputes — same
  // bytes, cached=false.
  EXPECT_EQ(daemon.server.cache_stats_snapshot().entries, 0u);
  EXPECT_GE(daemon.server.cache_stats_snapshot().evictions, 1u);

  bool cached = true;
  const auto result2 = client.submit_and_stream(small_sweep_text(), nullptr,
                                                &cached, nullptr, &error);
  ASSERT_TRUE(result2.has_value()) << error;
  EXPECT_FALSE(cached);
  EXPECT_EQ(*result1, *result2);
}

TEST(ServeEndToEndTest, ScenarioSpecsAreServedAndCachedToo) {
  TestServer daemon(base_options("scenario"));
  ASSERT_TRUE(daemon.started);

  Client client;
  std::string error;
  ASSERT_TRUE(client.connect_unix(daemon.server.socket_path(), 5, &error))
      << error;
  const std::string scenario =
      R"({"nodes":8,"robots":3,"horizon":300,"seed":5})";
  bool cached = true;
  const auto result1 = client.submit_and_stream(scenario, nullptr, &cached,
                                                nullptr, &error);
  ASSERT_TRUE(result1.has_value()) << error;
  EXPECT_FALSE(cached);
  // The result is the canonical run_result_to_json document.
  std::string parse_error;
  const auto parsed = parse_json(*result1, &parse_error);
  ASSERT_TRUE(parsed.has_value()) << parse_error;
  EXPECT_NE(parsed->find("perpetual"), nullptr);

  const auto result2 = client.submit_and_stream(scenario, nullptr, &cached,
                                                nullptr, &error);
  ASSERT_TRUE(result2.has_value()) << error;
  EXPECT_TRUE(cached);
  EXPECT_EQ(*result1, *result2);
}

TEST(ServeEndToEndTest, DisconnectedClientsAreReclaimedNotParked) {
  TestServer daemon(base_options("reclaim"));
  ASSERT_TRUE(daemon.started);

  // pef_client opens one connection per command: a daemon that parked each
  // served fd and thread until shutdown would hit EMFILE and stop
  // accepting.  Serve a handful of short-lived clients and require the
  // registry to return to empty.
  for (int round = 0; round < 8; ++round) {
    Client client;
    std::string error;
    ASSERT_TRUE(client.connect_unix(daemon.server.socket_path(), 5, &error))
        << error;
    const auto stats = client.request(R"({"op":"stats"})", &error);
    ASSERT_TRUE(stats.has_value()) << error;
    client.disconnect();
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (daemon.server.active_connections() != 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "disconnected clients were not reclaimed";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

TEST(ServeEndToEndTest, TerminalJobsFallOutOfTheJobTable) {
  ServerOptions options = base_options("retain");
  options.max_retained_jobs = 2;
  TestServer daemon(options);
  ASSERT_TRUE(daemon.started);

  Client client;
  std::string error;
  ASSERT_TRUE(client.connect_unix(daemon.server.socket_path(), 5, &error))
      << error;
  std::uint64_t first_job = 0;
  for (int seed = 1; seed <= 4; ++seed) {
    const std::string scenario =
        R"({"nodes":8,"robots":3,"horizon":50,"seed":)" +
        std::to_string(seed) + "}";
    std::uint64_t job_id = 0;
    const auto result = client.submit_and_stream(scenario, nullptr, nullptr,
                                                 &job_id, &error);
    ASSERT_TRUE(result.has_value()) << error;
    if (seed == 1) first_job = job_id;
  }

  // Four jobs finished under a retention window of two: the table is
  // bounded by the window, not by the daemon's lifetime job count.
  EXPECT_LE(daemon.server.jobs_table_size(), 2u);

  // The evicted id no longer answers status — its RESULT still serves,
  // from the cache keyed by spec.
  JsonWriter status_request;
  status_request.begin_object();
  status_request.field("op", "status");
  status_request.field("job", first_job);
  status_request.end_object();
  const auto status = client.request(status_request.str(), &error);
  ASSERT_TRUE(status.has_value()) << error;
  const JsonValue* ok = status->find("ok");
  ASSERT_NE(ok, nullptr);
  EXPECT_FALSE(ok->bool_value);

  bool cached = false;
  const auto replay = client.submit_and_stream(
      R"({"nodes":8,"robots":3,"horizon":50,"seed":1})", nullptr, &cached,
      nullptr, &error);
  ASSERT_TRUE(replay.has_value()) << error;
  EXPECT_TRUE(cached);
}

TEST(ServeEndToEndTest, CancelStopsARunningSweep) {
  ServerOptions options = base_options("cancel_running");
  options.workers = 1;
  options.sweep_threads = 1;
  TestServer daemon(options);
  ASSERT_TRUE(daemon.started);

  // Long enough to be mid-run when the cancel lands, with many seed
  // groups (one per ring size) so the cooperative flag has between-group
  // boundaries to stop at.
  const std::string big_sweep =
      R"({"algorithms":["pef3+"],)"
      R"("adversaries":[{"kind":"static","params":{}}],)"
      R"("models":["fsync"],"ring_sizes":[6,7,8,9,10,11,12,13],)"
      R"("robot_counts":[3],"seeds":[1,2],"horizon":20000000})";

  std::string error;
  std::uint64_t job_id = 0;
  {
    Client submitter;
    ASSERT_TRUE(
        submitter.connect_unix(daemon.server.socket_path(), 5, &error))
        << error;
    JsonWriter submit;
    submit.begin_object();
    submit.field("op", "submit");
    submit.field("spec_text", big_sweep);
    submit.end_object();
    const auto ack = submitter.request(submit.str(), &error);
    ASSERT_TRUE(ack.has_value()) << error;
    const JsonValue* ok = ack->find("ok");
    ASSERT_TRUE(ok != nullptr && ok->bool_value);
    const JsonValue* job = ack->find("job");
    ASSERT_TRUE(job != nullptr);
    job_id = job->uint_value;
    submitter.disconnect();  // the job is the worker's, not the stream's
  }

  Client control;
  ASSERT_TRUE(control.connect_unix(daemon.server.socket_path(), 5, &error))
      << error;
  const auto job_state = [&]() -> std::string {
    JsonWriter status;
    status.begin_object();
    status.field("op", "status");
    status.field("job", job_id);
    status.end_object();
    const auto response = control.request(status.str(), &error);
    if (!response.has_value()) return "<request failed: " + error + ">";
    const JsonValue* state = response->find("state");
    return state != nullptr ? state->string_value : "<no state>";
  };

  // Wait until the worker picks the job up, then cancel it mid-run.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (job_state() != "running") {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "job never started running";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  JsonWriter cancel;
  cancel.begin_object();
  cancel.field("op", "cancel");
  cancel.field("job", job_id);
  cancel.end_object();
  const auto response = control.request(cancel.str(), &error);
  ASSERT_TRUE(response.has_value()) << error;
  const JsonValue* ok = response->find("ok");
  ASSERT_TRUE(ok != nullptr && ok->bool_value)
      << "cancel refused for the running job";

  // The sweep stops at its next seed-group boundary and the job lands
  // terminal as cancelled.
  while (job_state() == "running") {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "running sweep ignored the cancel flag";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(job_state(), "cancelled");

  // A cancelled sweep is partial: nothing may land in the cache, and the
  // stats must count it as cancelled, not done.
  const ServeStats stats = daemon.server.stats_snapshot();
  EXPECT_EQ(stats.jobs_cancelled, 1u);
  EXPECT_EQ(stats.jobs_done, 0u);
  EXPECT_EQ(stats.cells_computed, 0u);
  EXPECT_EQ(daemon.server.cache_stats_snapshot().insertions, 0u);
}

// ---------------------------------------------------------------------------
// The real binaries against the golden baseline

TEST(ServeBinaryTest, ClientOutputIsByteIdenticalToGoldenBaseline) {
  const std::string serve_bin = std::string(PEF_BIN_DIR) + "/pef_serve";
  const std::string client_bin = std::string(PEF_BIN_DIR) + "/pef_client";
  ASSERT_TRUE(fs::exists(serve_bin)) << serve_bin;
  ASSERT_TRUE(fs::exists(client_bin)) << client_bin;

  const std::string dir = fresh_dir("binary_e2e");
  const std::string socket = fresh_socket("binary_e2e");
  const std::string spec =
      std::string(PEF_SPEC_DIR) + "/sweep_small.json";
  const std::string golden =
      std::string(PEF_BASELINE_DIR) + "/sweep_small.json";

  // One shell script drives the whole conversation so the daemon's
  // lifetime is contained even if an assertion fires.
  const std::string script =
      serve_bin + " --socket " + socket + " --cache-dir " + dir +
      "/cache 2>" + dir + "/serve.log & SERVE_PID=$!; " + client_bin +
      " --socket " + socket + " --timeout 10 --quiet --spec " + spec +
      " --out " + dir + "/first.json && " + client_bin + " --socket " +
      socket + " --timeout 10 --quiet --spec " + spec + " --out " + dir +
      "/second.json && " + client_bin + " --socket " + socket +
      " --stats > " + dir + "/stats.json; STATUS=$?; kill -TERM "
      "$SERVE_PID; wait $SERVE_PID; SERVE_STATUS=$?; exit "
      "$((STATUS + SERVE_STATUS))";
  const int status = std::system(("sh -c '" + script + "'").c_str());
  ASSERT_EQ(status, 0) << read_file(dir + "/serve.log");

  const std::string expected = read_file(golden);
  EXPECT_EQ(read_file(dir + "/first.json"), expected);
  EXPECT_EQ(read_file(dir + "/second.json"), expected);

  // The stats response proves the second run was a pure cache hit.
  std::string error;
  const auto stats = parse_json(read_file(dir + "/stats.json"), &error);
  ASSERT_TRUE(stats.has_value()) << error;
  const JsonValue* serve_stats = stats->find("stats");
  ASSERT_NE(serve_stats, nullptr);
  const JsonValue* hits = serve_stats->find("cache_hits");
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(hits->uint_value, 1u);
}

}  // namespace
}  // namespace pef::serve
