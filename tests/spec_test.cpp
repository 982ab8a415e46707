// Tests for the declarative scenario/sweep spec API (core/spec.hpp) and the
// JSON parser underneath it (common/json.hpp): parse∘serialize must be the
// identity, bad input must fail with actionable messages, and the adversary
// registry must agree with the historical battery factories.
#include "core/spec.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/experiment.hpp"
#include "orchestrator/ledger.hpp"

namespace pef {
namespace {

// ---------------------------------------------------------------------------
// JsonValue / parse_json

TEST(JsonParseTest, ParsesScalarsExactly) {
  std::string error;
  const auto doc = parse_json(
      R"({"a": 1, "b": -2.5, "c": true, "d": null, "e": "x\n", )"
      R"("big": 17454410316023251831})",
      &error);
  ASSERT_TRUE(doc.has_value()) << error;
  ASSERT_TRUE(doc->is_object());
  EXPECT_TRUE(doc->find("a")->is_uint);
  EXPECT_EQ(doc->find("a")->uint_value, 1u);
  EXPECT_FALSE(doc->find("b")->is_uint);
  EXPECT_DOUBLE_EQ(doc->find("b")->number_value, -2.5);
  EXPECT_TRUE(doc->find("c")->bool_value);
  EXPECT_TRUE(doc->find("d")->is_null());
  EXPECT_EQ(doc->find("e")->string_value, "x\n");
  // Above 2^53: doubles round, uint_value must not.
  EXPECT_TRUE(doc->find("big")->is_uint);
  EXPECT_EQ(doc->find("big")->uint_value, 17454410316023251831ull);
}

TEST(JsonParseTest, PreservesMemberOrderAndNesting) {
  std::string error;
  const auto doc =
      parse_json(R"({"z": [1, {"k": [true]}], "a": {}})", &error);
  ASSERT_TRUE(doc.has_value()) << error;
  ASSERT_EQ(doc->members.size(), 2u);
  EXPECT_EQ(doc->members[0].first, "z");
  EXPECT_EQ(doc->members[1].first, "a");
  const JsonValue& z = doc->members[0].second;
  ASSERT_TRUE(z.is_array());
  ASSERT_EQ(z.items.size(), 2u);
  EXPECT_TRUE(z.items[1].find("k")->items[0].bool_value);
}

TEST(JsonParseTest, ErrorsCarryLineAndColumn) {
  std::string error;
  EXPECT_FALSE(parse_json("{\"a\": 1,\n  \"b\" 2}", &error).has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("':'"), std::string::npos) << error;

  EXPECT_FALSE(parse_json("[1, 2", &error).has_value());
  EXPECT_NE(error.find("unterminated array"), std::string::npos) << error;

  EXPECT_FALSE(parse_json("{} trailing", &error).has_value());
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;

  EXPECT_FALSE(parse_json("{\"a\": nul}", &error).has_value());
}

TEST(JsonParseTest, RoundTripsWriterOutput) {
  JsonWriter writer;
  writer.begin_object();
  writer.field("name", "quote\" and \\ and\ttab");
  writer.field("pi", 3.25);
  writer.begin_array("xs");
  writer.element(std::uint64_t{18446744073709551615ull});
  writer.end_array();
  writer.end_object();
  std::string error;
  const auto doc = parse_json(writer.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->find("name")->string_value, "quote\" and \\ and\ttab");
  EXPECT_DOUBLE_EQ(doc->find("pi")->number_value, 3.25);
  EXPECT_EQ(doc->find("xs")->items[0].uint_value, 18446744073709551615ull);
}

// ---------------------------------------------------------------------------
// The adversary registry

TEST(AdversaryRegistryTest, BatchableFlagMatchesResolutionForEveryKind) {
  // The `batchable` capability flag must track what adversary_from_config
  // actually resolves to, for EVERY registry kind: batchable == the live
  // adversary is an oblivious schedule (a pure function of time), which is
  // exactly the property BatchEngine's plane-fill path detects at runtime
  // (ObliviousAdversary / SsyncAdversary::oblivious_schedule()).  A kind
  // whose resolution changes without its flag becomes stale metadata —
  // this pin makes that a test failure instead.
  const Ring ring(12);
  for (const AdversaryKindInfo& info : adversary_registry()) {
    const AdversaryPtr adversary =
        adversary_from_config(adversary_config(info.kind), ring, /*seed=*/3,
                              /*robots=*/3);
    const bool oblivious =
        dynamic_cast<const ObliviousAdversary*>(adversary.get()) != nullptr;
    EXPECT_EQ(info.batchable, oblivious) << info.name;
    // And batchable/adaptive partition the registry: an adversary either
    // never sees gamma (batchable) or is one of the adaptive families.
    EXPECT_EQ(info.batchable, !info.adaptive) << info.name;
  }
}

TEST(AdversaryRegistryTest, NamesRoundTripThroughTheRegistry) {
  for (const AdversaryKindInfo& info : adversary_registry()) {
    const auto kind = parse_adversary_kind(info.name);
    ASSERT_TRUE(kind.has_value()) << info.name;
    EXPECT_EQ(*kind, info.kind);
    EXPECT_STREQ(adversary_kind_info(info.kind).name, info.name);
  }
  EXPECT_FALSE(parse_adversary_kind("no-such-family").has_value());
}

TEST(AdversaryRegistryTest, DisplayNamesMatchTheHistoricalBatteryNames) {
  // The sweep baseline JSON pins these strings; the registry is now their
  // single source of truth.
  EXPECT_EQ(adversary_display_name(adversary_config(AdversaryKind::kStatic)),
            "static");
  EXPECT_EQ(adversary_display_name(
                adversary_config(AdversaryKind::kBernoulli, {{"p", 0.5}})),
            "bernoulli(p=0.5)");
  EXPECT_EQ(adversary_display_name(adversary_config(
                AdversaryKind::kPeriodic, {{"period", 5}, {"duty", 3}})),
            "periodic(3/5)");
  EXPECT_EQ(adversary_display_name(
                adversary_config(AdversaryKind::kTInterval)),
            "t-interval(T=4)");
  EXPECT_EQ(adversary_display_name(
                adversary_config(AdversaryKind::kBoundedAbsence)),
            "bounded-absence(A=6)");
}

TEST(AdversaryConfigTest, ParamResolutionAndEquality) {
  AdversaryConfig config = adversary_config(AdversaryKind::kBernoulli);
  EXPECT_DOUBLE_EQ(config.param("p"), 0.5);  // registry default
  config.set("p", 0.9);
  EXPECT_DOUBLE_EQ(config.param("p"), 0.9);
  // Explicit default == absent default.
  EXPECT_EQ(adversary_config(AdversaryKind::kBernoulli, {{"p", 0.5}}),
            adversary_config(AdversaryKind::kBernoulli));
  EXPECT_FALSE(adversary_config(AdversaryKind::kBernoulli, {{"p", 0.9}}) ==
               adversary_config(AdversaryKind::kBernoulli));
}

TEST(AdversaryConfigTest, ValidationExplainsWhatIsWrong) {
  const auto err = validate_adversary(
      adversary_config(AdversaryKind::kBernoulli, {{"p", 1.5}}));
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("\"p\""), std::string::npos) << *err;
  EXPECT_NE(err->find("[0, 1]"), std::string::npos) << *err;

  const auto duty = validate_adversary(adversary_config(
      AdversaryKind::kPeriodic, {{"period", 3}, {"duty", 5}}));
  ASSERT_TRUE(duty.has_value());
  EXPECT_NE(duty->find("duty"), std::string::npos) << *duty;
}

// ---------------------------------------------------------------------------
// ScenarioSpec JSON

TEST(ScenarioSpecTest, JsonRoundTripIsIdentity) {
  ScenarioSpec spec;
  spec.nodes = 12;
  spec.robots = 4;
  spec.algorithm = "pef3+";
  spec.adversary = adversary_config(AdversaryKind::kBernoulli, {{"p", 0.7}});
  spec.model = ExecutionModel::kSsync;
  spec.activation_p = 0.25;
  spec.horizon = 1234;
  spec.seed = 17454410316023251831ull;  // > 2^53: must stay exact

  std::string error;
  const auto parsed = parse_scenario_spec(spec.to_json(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(*parsed, spec);
  // serialize ∘ parse ∘ serialize is byte-stable.
  EXPECT_EQ(parsed->to_json(), spec.to_json());
}

TEST(ScenarioSpecTest, DefaultsRoundTripToo) {
  const ScenarioSpec spec;
  std::string error;
  const auto parsed = parse_scenario_spec(spec.to_json(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(*parsed, spec);
}

TEST(ScenarioSpecTest, BadInputGetsActionableErrors) {
  std::string error;

  EXPECT_FALSE(parse_scenario_spec("[1,2]", &error).has_value());
  EXPECT_NE(error.find("JSON object"), std::string::npos) << error;

  EXPECT_FALSE(parse_scenario_spec(R"({"robotz": 3})", &error).has_value());
  EXPECT_NE(error.find("robotz"), std::string::npos) << error;
  EXPECT_NE(error.find("robots"), std::string::npos) << error;  // key list

  EXPECT_FALSE(
      parse_scenario_spec(R"({"nodes": "ten"})", &error).has_value());
  EXPECT_NE(error.find("\"nodes\""), std::string::npos) << error;
  EXPECT_NE(error.find("integer"), std::string::npos) << error;

  EXPECT_FALSE(parse_scenario_spec(
                   R"({"adversary": {"kind": "bernouli"}})", &error)
                   .has_value());
  EXPECT_NE(error.find("bernouli"), std::string::npos) << error;
  EXPECT_NE(error.find("bernoulli"), std::string::npos) << error;  // kinds

  EXPECT_FALSE(
      parse_scenario_spec(
          R"({"adversary": {"kind": "bernoulli", "params": {"q": 1}}})",
          &error)
          .has_value());
  EXPECT_NE(error.find("\"q\""), std::string::npos) << error;
  EXPECT_NE(error.find("params: p"), std::string::npos) << error;

  EXPECT_FALSE(
      parse_scenario_spec(R"({"algorithm": "pef9"})", &error).has_value());
  EXPECT_NE(error.find("pef9"), std::string::npos) << error;
  EXPECT_NE(error.find("pef3+"), std::string::npos) << error;  // known list

  EXPECT_FALSE(parse_scenario_spec(R"({"nodes": 3, "robots": 5})", &error)
                   .has_value());
  EXPECT_NE(error.find("robots < nodes"), std::string::npos) << error;

  EXPECT_FALSE(parse_scenario_spec(R"({"model": "sync"})", &error)
                   .has_value());
  EXPECT_NE(error.find("fsync"), std::string::npos) << error;
}

TEST(ScenarioSpecTest, RunScenarioExecutesTheSpec) {
  ScenarioSpec spec;
  spec.nodes = 6;
  spec.robots = 3;
  spec.algorithm = "pef3+";
  spec.adversary = adversary_config(AdversaryKind::kStatic);
  spec.horizon = 300;
  spec.seed = 5;
  const RunResult result = run_scenario(spec);
  EXPECT_EQ(result.algorithm_name, "pef3+");
  EXPECT_EQ(result.adversary_name, "static");
  EXPECT_TRUE(result.perpetual);
  EXPECT_TRUE(result.adversary_legal);

  // Resolution: empty algorithm -> the paper's recommendation.
  spec.algorithm.clear();
  EXPECT_EQ(resolved_algorithm(spec), "pef3+");
}

// ---------------------------------------------------------------------------
// SweepSpec JSON

SweepSpec sample_sweep() {
  SweepSpec spec;
  spec.algorithms = {"pef3+", "bounce"};
  spec.adversaries = {
      adversary_config(AdversaryKind::kStatic),
      adversary_config(AdversaryKind::kBernoulli, {{"p", 0.5}}),
      adversary_config(AdversaryKind::kProof, {{"patience", 32}})};
  spec.models = {ExecutionModel::kFsync, ExecutionModel::kAsync};
  spec.ring_sizes = {6, 10};
  spec.robot_counts = {3};
  spec.seeds = {1, 2, 17454410316023251831ull};
  spec.activation_p = 0.75;
  spec.horizon = 400;
  spec.max_batch = 16;
  return spec;
}

TEST(SweepSpecTest, JsonRoundTripIsIdentity) {
  const SweepSpec spec = sample_sweep();
  std::string error;
  const auto parsed = parse_sweep_spec(spec.to_json(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(*parsed, spec);
  EXPECT_EQ(parsed->to_json(), spec.to_json());
}

TEST(SweepSpecTest, BadInputGetsActionableErrors) {
  std::string error;

  EXPECT_FALSE(parse_sweep_spec(R"({"algorithms": []})", &error).has_value());
  EXPECT_NE(error.find("algorithms"), std::string::npos) << error;

  EXPECT_FALSE(
      parse_sweep_spec(R"({"algorithms": ["pef3+"], "adversaries": [],)"
                       R"( "ring_sizes": [6], "robot_counts": [3],)"
                       R"( "seeds": [1]})",
                       &error)
          .has_value());
  EXPECT_NE(error.find("adversaries"), std::string::npos) << error;

  EXPECT_FALSE(parse_sweep_spec(R"({"ring_sizes": 6})", &error).has_value());
  EXPECT_NE(error.find("array"), std::string::npos) << error;

  EXPECT_FALSE(parse_sweep_spec(R"({"max_batc": 4})", &error).has_value());
  EXPECT_NE(error.find("max_batc"), std::string::npos) << error;
  EXPECT_NE(error.find("max_batch"), std::string::npos) << error;
}

TEST(SweepSpecTest, CanonicalJsonIsTheStableCacheKey) {
  // pef_serve keys its result cache by the canonical single-line spec JSON,
  // so syntactic variants of the same spec — reordered keys, whitespace,
  // comments-by-way-of-formatting — MUST canonicalize to byte-identical
  // strings, or identical work stops coalescing and cache hits vanish.
  const std::string canonical_order = R"({
    "algorithms": ["pef3+"],
    "adversaries": [{"kind": "static", "params": {}}],
    "models": ["fsync"],
    "topology": "chain",
    "ring_sizes": [8],
    "robot_counts": [3],
    "seeds": [7],
    "horizon": 100
  })";
  const std::string reordered_and_squeezed =
      R"({"seeds":[7],"horizon":100,"robot_counts":[3],"ring_sizes":[8],)"
      R"("topology":"chain","models":["fsync"],)"
      R"("adversaries":[{"params":{},"kind":"static"}],)"
      R"("algorithms":["pef3+"]})";

  std::string error;
  const auto first = parse_sweep_spec(canonical_order, &error);
  ASSERT_TRUE(first.has_value()) << error;
  const auto second = parse_sweep_spec(reordered_and_squeezed, &error);
  ASSERT_TRUE(second.has_value()) << error;

  EXPECT_EQ(first->to_json(), second->to_json());
  // Canonicalization is idempotent: parse∘serialize of the canonical form
  // is the identity, so a key never drifts across round trips.
  const auto reparsed = parse_sweep_spec(first->to_json(), &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_EQ(reparsed->to_json(), first->to_json());

  // The content hash of the canonical key follows the orchestrator's
  // ledger spec-hash convention (fnv1a64 of the canonical JSON) — one hash
  // identity for "same sweep" across the ledger and the serve cache.
  EXPECT_EQ(fnv1a64(first->to_json()), fnv1a64(second->to_json()));
  EXPECT_NE(fnv1a64(first->to_json()), fnv1a64(std::string()));
}

TEST(SweepSpecTest, CheckedInExampleSpecsParseAndValidate) {
  // Every spec file shipped under examples/specs/ must stay loadable.
  for (const char* name :
       {"sweep_small.json", "sweep_models.json", "sweep_chain_small.json"}) {
    std::ifstream file(std::string(PEF_SPEC_DIR) + "/" + name);
    ASSERT_TRUE(file.good()) << name;
    std::ostringstream buffer;
    buffer << file.rdbuf();
    std::string error;
    const auto spec = parse_sweep_spec(buffer.str(), &error);
    EXPECT_TRUE(spec.has_value()) << name << ": " << error;
  }
  std::ifstream file(std::string(PEF_SPEC_DIR) +
                     "/scenario_eventual_missing.json");
  ASSERT_TRUE(file.good());
  std::ostringstream buffer;
  buffer << file.rdbuf();
  std::string error;
  const auto scenario = parse_scenario_spec(buffer.str(), &error);
  EXPECT_TRUE(scenario.has_value()) << error;
}

}  // namespace
}  // namespace pef
