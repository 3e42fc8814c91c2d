// The serving layer (src/server/): protocol round-trips for every request
// type, structured errors for every malformed input (never a crash), a
// byte-split fuzz loop over the framing parser, concurrency determinism
// (byte-identical reports at any session count, arrival order, and store
// temperature), and governance under load (a starved or fault-injected
// request degrades only its own response — the shared store never serves
// its poison to concurrent clean requests).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "kernels/gfmc.h"
#include "kernels/greengauss.h"
#include "kernels/mutants.h"
#include "kernels/stencil.h"
#include "server/json.h"
#include "server/protocol.h"
#include "server/server.h"
#include "support/diagnostics.h"
#include "support/percentile.h"

namespace {

using namespace formad;
using server::AnalysisServer;
using server::JsonValue;
using server::LineFramer;
using server::ServeOptions;
namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  explicit TempDir(const char* tag)
      : path(fs::temp_directory_path() /
             (std::string("formad_server_") + tag + "_" +
              std::to_string(::getpid()))) {
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

JsonValue parse(const std::string& line) {
  return server::parseJson(line);
}

/// Response accessors; each asserts the member exists with the right kind.
bool okOf(const JsonValue& r) {
  const JsonValue* ok = r.find("ok");
  EXPECT_NE(ok, nullptr);
  return ok != nullptr && ok->kind() == JsonValue::Kind::Bool && ok->asBool();
}

std::string errorCodeOf(const JsonValue& r) {
  const JsonValue* err = r.find("error");
  if (err == nullptr || err->kind() != JsonValue::Kind::Object) return "";
  const JsonValue* code = err->find("code");
  return code != nullptr && code->kind() == JsonValue::Kind::String
             ? code->asString()
             : "";
}

std::string stringField(const JsonValue& r, const std::string& key) {
  const JsonValue* v = r.find(key);
  EXPECT_NE(v, nullptr) << "missing '" << key << "'";
  return v != nullptr && v->kind() == JsonValue::Kind::String ? v->asString()
                                                              : "";
}

/// The deterministic part of a response: everything except wall-clock and
/// store-temperature observables. Byte-compared across configurations.
std::string deterministicPart(const std::string& line) {
  JsonValue r = parse(line);
  JsonValue out = JsonValue::object();
  for (const auto& [key, val] : r.members())
    if (key != "wall_ms" && key != "cache") out.set(key, val);
  return out.dump();
}

std::string analyzeFrame(const kernels::KernelSpec& spec,
                         const std::string& optionsJson = "") {
  JsonValue req = JsonValue::object();
  req.set("id", JsonValue::str(spec.name));
  req.set("op", JsonValue::str("analyze"));
  req.set("source", JsonValue::str(spec.source));
  JsonValue ind = JsonValue::array();
  for (const auto& v : spec.independents) ind.push(JsonValue::str(v));
  req.set("independents", std::move(ind));
  JsonValue dep = JsonValue::array();
  for (const auto& v : spec.dependents) dep.push(JsonValue::str(v));
  req.set("dependents", std::move(dep));
  if (!optionsJson.empty()) req.set("options", parse(optionsJson));
  return req.dump();
}

std::string racecheckFrame(const kernels::KernelSpec& spec) {
  JsonValue req = JsonValue::object();
  req.set("id", JsonValue::str(spec.name));
  req.set("op", JsonValue::str("racecheck"));
  req.set("source", JsonValue::str(spec.source));
  return req.dump();
}

// ---------------------------------------------------------------------------
// Protocol round-trips.

TEST(ServerProtocol, AnalyzeRoundTrip) {
  AnalysisServer daemon(ServeOptions{});
  const kernels::KernelSpec spec = kernels::stencilSpec(1);
  JsonValue r = parse(daemon.process(analyzeFrame(spec)));
  EXPECT_TRUE(okOf(r));
  EXPECT_EQ(stringField(r, "op"), "analyze");
  EXPECT_EQ(stringField(r, "id"), "stencil1");
  EXPECT_EQ(stringField(r, "kernel"), "stencil1");
  const std::string report = stringField(r, "report");
  EXPECT_NE(report.find("SAFE"), std::string::npos);
  EXPECT_NE(report.find("decision tiers"), std::string::npos);
  ASSERT_NE(r.find("tiers"), nullptr);
  ASSERT_NE(r.find("governance"), nullptr);
  ASSERT_NE(r.find("cache"), nullptr);
  ASSERT_NE(r.find("wall_ms"), nullptr);
}

TEST(ServerProtocol, RacecheckRoundTripRacyAndClean) {
  AnalysisServer daemon(ServeOptions{});
  JsonValue racy = parse(daemon.process(racecheckFrame(
      kernels::stencilRacySpec())));
  EXPECT_TRUE(okOf(racy));
  EXPECT_EQ(stringField(racy, "verdict"), "RACY");
  JsonValue clean =
      parse(daemon.process(racecheckFrame(kernels::stencilSpec(1))));
  EXPECT_TRUE(okOf(clean));
  EXPECT_EQ(stringField(clean, "verdict"), "race-free");
}

TEST(ServerProtocol, LintRoundTrip) {
  AnalysisServer daemon(ServeOptions{});
  JsonValue req = JsonValue::object();
  req.set("op", JsonValue::str("lint"));
  req.set("source", JsonValue::str(kernels::greenGaussSpec().source));
  JsonValue r = parse(daemon.process(req.dump()));
  EXPECT_TRUE(okOf(r));
  const JsonValue* clean = r.find("clean");
  ASSERT_NE(clean, nullptr);
  EXPECT_TRUE(clean->asBool());  // the paper kernels lint clean
  // Absent id echoes back as null.
  const JsonValue* id = r.find("id");
  ASSERT_NE(id, nullptr);
  EXPECT_EQ(id->kind(), JsonValue::Kind::Null);
}

TEST(ServerProtocol, StatsCountsRequests) {
  AnalysisServer daemon(ServeOptions{});
  (void)daemon.process(analyzeFrame(kernels::stencilSpec(1)));
  (void)daemon.process(R"({"op":"nonsense"})");
  JsonValue r = parse(daemon.process(R"({"id":7,"op":"stats"})"));
  EXPECT_TRUE(okOf(r));
  const JsonValue* id = r.find("id");
  ASSERT_NE(id, nullptr);
  EXPECT_EQ(id->asInt(), 7);
  const JsonValue* reqs = r.find("requests");
  ASSERT_NE(reqs, nullptr);
  EXPECT_EQ(reqs->find("analyze")->asInt(), 1);
  EXPECT_EQ(reqs->find("errors")->asInt(), 1);
  const JsonValue* store = r.find("store");
  ASSERT_NE(store, nullptr);
  EXPECT_GT(store->find("task_stores")->asInt(), 0);
}

TEST(ServerProtocol, ShutdownStopsNewRequests) {
  AnalysisServer daemon(ServeOptions{});
  JsonValue r = parse(daemon.process(R"({"id":1,"op":"shutdown"})"));
  EXPECT_TRUE(okOf(r));
  EXPECT_TRUE(daemon.shutdownRequested());
  JsonValue after = parse(daemon.process(R"({"id":2,"op":"stats"})"));
  EXPECT_FALSE(okOf(after));
  EXPECT_EQ(errorCodeOf(after), "shutting_down");
}

// ---------------------------------------------------------------------------
// Structured errors: every malformed input gets a typed error response.

TEST(ServerProtocol, MalformedInputsGetStructuredErrors) {
  AnalysisServer daemon(ServeOptions{});
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"{not json", "parse_error"},
      {"42", "bad_request"},                        // not an object
      {R"({"id":1})", "bad_request"},               // missing op
      {R"({"op":"noop"})", "bad_request"},          // unknown op
      {R"({"op":"stats","shards":4})", "bad_request"},  // unknown field
      {R"({"op":"stats","options":{"turbo":true}})",
       "bad_request"},                              // unknown options field
      {R"({"op":"stats","options":{"threads":"four"}})",
       "bad_request"},                              // wrong option type
      {R"({"op":"stats","options":{"solver_budget":-2}})",
       "bad_request"},                              // out of range
      {R"({"id":true,"op":"stats"})", "bad_request"},   // bad id kind
      {R"({"op":"analyze","source":"kernel k() {}"})",
       "bad_request"},                              // missing indep/dep
      {R"({"op":"stats","source":"kernel k() {}"})",
       "bad_request"},                              // source on a no-source op
      {R"({"op":"lint","source":""})", "bad_request"},  // empty source
      {R"({"op":"lint","source":"kernel k("})",
       "kernel_error"},                             // DSL parse failure
  };
  for (const auto& [frame, code] : cases) {
    JsonValue r = parse(daemon.process(frame));
    EXPECT_FALSE(okOf(r)) << frame;
    EXPECT_EQ(errorCodeOf(r), code) << frame;
  }
  // The daemon survived all of it.
  EXPECT_TRUE(okOf(parse(daemon.process(R"({"op":"stats"})"))));
}

// Literals the lexer cannot represent fail the one request as a
// kernel_error with the literal named; the daemon serves the next request.
TEST(ServerProtocol, OutOfRangeLiteralIsAKernelError) {
  AnalysisServer daemon(ServeOptions{});
  const std::string kernelHead =
      "kernel k(n: int in, v: real[] inout, w: real[] in) {\n"
      "  parallel for i = 0 : n - 1 {\n";
  for (const std::string body : {"    v[i] += w[123456789012345678901];\n",
                                 "    v[i] += w[i] * 1e999;\n"}) {
    kernels::KernelSpec spec;
    spec.name = "overflow";
    spec.source = kernelHead + body + "  }\n}\n";
    spec.independents = {"w"};
    spec.dependents = {"v"};
    JsonValue r = parse(daemon.process(analyzeFrame(spec)));
    EXPECT_FALSE(okOf(r)) << body;
    EXPECT_EQ(errorCodeOf(r), "kernel_error") << body;
    EXPECT_NE(daemon.process(analyzeFrame(spec)).find("out of range"),
              std::string::npos)
        << body;
    JsonValue next =
        parse(daemon.process(analyzeFrame(kernels::stencilSpec(1))));
    EXPECT_TRUE(okOf(next)) << body;
  }
}

// Index coefficients near 2^62 overflow exact 64-bit arithmetic. Inside a
// solver check that is an Unknown (the guard stays, never SAFE); during
// index lowering it is a located kernel error. Either way the daemon
// answers the request and keeps serving.
TEST(ServerProtocol, ArithmeticOverflowNeverKillsTheDaemon) {
  AnalysisServer daemon(ServeOptions{});
  const std::string head =
      "kernel k(n: int in, x: real[] in, v: real[] inout) {\n"
      "  parallel for i = 0 : n - 1 {\n";
  kernels::KernelSpec spec;
  spec.name = "overflow";
  spec.independents = {"x"};
  spec.dependents = {"v"};
  const std::string stats = R"({"id":"s","op":"stats"})";

  spec.source = head +
                "    v[4611686018427387904*i+3] = x[i] + "
                "x[4611686018427387904*i+1];\n  }\n}\n";
  JsonValue solved = parse(daemon.process(analyzeFrame(spec)));
  EXPECT_TRUE(okOf(solved));
  EXPECT_NE(stringField(solved, "report").find("x: UNSAFE"),
            std::string::npos);
  EXPECT_TRUE(okOf(parse(daemon.process(stats))));

  spec.source = head + "    v[4611686018427387904*4*i] = x[i];\n  }\n}\n";
  JsonValue lowered = parse(daemon.process(analyzeFrame(spec)));
  EXPECT_FALSE(okOf(lowered));
  EXPECT_EQ(errorCodeOf(lowered), "kernel_error");
  EXPECT_NE(daemon.process(analyzeFrame(spec))
                .find("3:5: arithmetic overflow"),
            std::string::npos);
  EXPECT_TRUE(okOf(parse(daemon.process(stats))));

  // Overflow while forming a question (offsets 2^63-1 apart) is located
  // at the parallel loop.
  spec.source = head +
                "    v[9223372036854775807*i + 9223372036854775807] = "
                "v[9223372036854775807*i - 9223372036854775807] + x[i];\n"
                "  }\n}\n";
  const std::string question = daemon.process(analyzeFrame(spec));
  EXPECT_EQ(errorCodeOf(parse(question)), "kernel_error");
  EXPECT_NE(question.find("2:3: arithmetic overflow"), std::string::npos);
  EXPECT_TRUE(okOf(parse(daemon.process(stats))));
}

// Sources nesting past the parser's depth limit, by recursion (20,000
// nested parentheses, 40 KB) or as one flat chain (a 100,000-term sum,
// 700 KB, under the frame limit), fail the one request as a located
// kernel_error; the daemon keeps serving.
TEST(ServerProtocol, NestingPastTheDepthLimitIsAKernelError) {
  AnalysisServer daemon(ServeOptions{});
  std::string sum = "x[i]";
  for (int t = 1; t < 100000; ++t) sum += " + x[i]";
  kernels::KernelSpec spec;
  spec.name = "deep";
  spec.independents = {"x"};
  spec.dependents = {"v"};
  for (const std::string& rhs :
       {std::string(20000, '(') + "x[i]" + std::string(20000, ')'), sum}) {
    spec.source =
        "kernel k(n: int in, x: real[] in, v: real[] inout) {\n"
        "  parallel for i = 0 : n - 1 {\n"
        "    v[i] = " +
        rhs + ";\n  }\n}\n";
    JsonValue r = parse(daemon.process(analyzeFrame(spec)));
    EXPECT_FALSE(okOf(r));
    EXPECT_EQ(errorCodeOf(r), "kernel_error");
    const JsonValue* err = r.find("error");
    ASSERT_NE(err, nullptr);
    const std::string message = stringField(*err, "message");
    EXPECT_EQ(message.rfind("3:", 0), 0u) << message;
    EXPECT_NE(message.find("depth limit"), std::string::npos) << message;
    EXPECT_TRUE(okOf(parse(daemon.process(R"({"op":"stats"})"))));
  }
}

TEST(ServerProtocol, BadRequestStillEchoesTheId) {
  AnalysisServer daemon(ServeOptions{});
  JsonValue r = parse(daemon.process(R"({"id":"req-9","op":"noop"})"));
  EXPECT_FALSE(okOf(r));
  EXPECT_EQ(stringField(r, "id"), "req-9");
}

TEST(ServerProtocol, UnknownHeadKernelIsAKernelError) {
  AnalysisServer daemon(ServeOptions{});
  JsonValue req = JsonValue::object();
  req.set("op", JsonValue::str("lint"));
  req.set("source", JsonValue::str(kernels::stencilSpec(1).source));
  req.set("head", JsonValue::str("nope"));
  JsonValue r = parse(daemon.process(req.dump()));
  EXPECT_FALSE(okOf(r));
  EXPECT_EQ(errorCodeOf(r), "kernel_error");
}

TEST(ServerProtocol, OversizedFrameIsRejectedNotBuffered) {
  ServeOptions opts;
  opts.maxRequestBytes = 256;
  AnalysisServer daemon(opts);
  std::istringstream in(std::string(10000, 'x') + "\n" +
                        R"({"id":1,"op":"stats"})" + "\n" +
                        R"({"op":"shutdown"})" + "\n");
  std::ostringstream out;
  server::serveStdio(daemon, in, out);
  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(errorCodeOf(parse(line)), "oversized");
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_TRUE(okOf(parse(line)));  // the next request still works
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_TRUE(okOf(parse(line)));  // shutdown acknowledged
}

// ---------------------------------------------------------------------------
// Framing fuzz: random byte splits must reproduce unsplit framing.

TEST(ServerFraming, RandomChunkSplitsReproduceUnsplitFrames) {
  const std::string stream =
      "{\"op\":\"stats\"}\n"
      "\n"                              // blank line: dropped
      "{\"id\":1,\"op\":\"lint\"}\r\n"  // CRLF client
      + std::string(300, 'y') + "\n"    // oversized at limit 128
      + "{\"id\":2}\n"
        "tail-without-newline";
  auto frameAll = [](LineFramer& framer, const std::string& bytes,
                     const std::vector<size_t>& cuts) {
    std::vector<LineFramer::Frame> out;
    size_t pos = 0;
    for (size_t cut : cuts) {
      framer.feed(bytes.data() + pos, cut - pos, out);
      pos = cut;
    }
    framer.feed(bytes.data() + pos, bytes.size() - pos, out);
    framer.finish(out);
    return out;
  };

  LineFramer whole(128);
  const std::vector<LineFramer::Frame> reference =
      frameAll(whole, stream, {});
  ASSERT_EQ(reference.size(), 5u);
  EXPECT_TRUE(reference[2].oversized);

  std::mt19937 rng(20260808);
  for (int round = 0; round < 200; ++round) {
    std::vector<size_t> cuts;
    const size_t nCuts = rng() % 12;
    for (size_t c = 0; c < nCuts; ++c)
      cuts.push_back(rng() % (stream.size() + 1));
    std::sort(cuts.begin(), cuts.end());
    LineFramer framer(128);
    const std::vector<LineFramer::Frame> got =
        frameAll(framer, stream, cuts);
    ASSERT_EQ(got.size(), reference.size()) << "round " << round;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].text, reference[i].text) << "round " << round;
      EXPECT_EQ(got[i].oversized, reference[i].oversized)
          << "round " << round;
    }
  }
}

TEST(ServerFraming, SplitRequestsYieldIdenticalResponses) {
  AnalysisServer daemon(ServeOptions{});
  const std::string frame = analyzeFrame(kernels::stencilSpec(1));
  const std::string reference =
      deterministicPart(daemon.process(frame));

  // The same request arriving in arbitrary chunks through the framer must
  // produce the same response.
  std::mt19937 rng(7);
  for (int round = 0; round < 20; ++round) {
    LineFramer framer(1 << 20);
    std::vector<LineFramer::Frame> frames;
    const std::string bytes = frame + "\n";
    size_t pos = 0;
    while (pos < bytes.size()) {
      const size_t n = 1 + rng() % 40;
      const size_t len = std::min(n, bytes.size() - pos);
      framer.feed(bytes.data() + pos, len, frames);
      pos += len;
    }
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(deterministicPart(daemon.process(frames[0].text)), reference);
  }
}

// ---------------------------------------------------------------------------
// Concurrency determinism: byte-identical reports at any session count,
// arrival order, and store temperature.

TEST(ServerConcurrency, ReportsAreByteIdenticalAcrossSessionsAndOrder) {
  // The mixed workload every client replays.
  std::vector<std::string> mix = {
      analyzeFrame(kernels::stencilSpec(1)),
      analyzeFrame(kernels::stencilSpec(2)),
      analyzeFrame(kernels::gfmcSplitSpec()),
      analyzeFrame(kernels::greenGaussSpec()),
      racecheckFrame(kernels::stencilRacySpec()),
      racecheckFrame(kernels::gatherRacySpec()),
      racecheckFrame(kernels::stencilSpec(1)),
  };

  // Reference: a serial 1-session daemon, one request at a time.
  std::map<std::string, std::string> reference;
  {
    ServeOptions opts;
    opts.sessions = 1;
    AnalysisServer daemon(opts);
    for (const auto& frame : mix)
      reference[frame] = deterministicPart(daemon.process(frame));
  }

  TempDir dir("determinism");
  for (int sessions : {1, 2, 4, 8}) {
    // Two passes over one shared cache directory: the second runs against
    // a warm store (disk + memory layer), and must still be
    // byte-identical.
    ServeOptions opts;
    opts.sessions = sessions;
    opts.cacheDir = dir.path.string();
    AnalysisServer daemon(opts);
    for (int pass = 0; pass < 2; ++pass) {
      const int kClients = 4;
      std::vector<std::vector<std::pair<std::string, std::string>>> got(
          kClients);
      std::vector<std::thread> clients;
      for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          // Each client its own arrival order.
          std::vector<std::string> order = mix;
          std::mt19937 rng(static_cast<unsigned>(1000 * pass + c));
          std::shuffle(order.begin(), order.end(), rng);
          for (const auto& frame : order)
            got[static_cast<size_t>(c)].emplace_back(
                frame, daemon.process(frame));
        });
      }
      for (auto& t : clients) t.join();
      for (const auto& client : got)
        for (const auto& [frame, line] : client)
          EXPECT_EQ(deterministicPart(line), reference[frame])
              << "sessions=" << sessions << " pass=" << pass;
    }
  }
}

// ---------------------------------------------------------------------------
// Governance under load: a starved or faulted request degrades only its
// own response; the shared store never serves its poison.

TEST(ServerGovernance, StarvedRequestDegradesOnlyItself) {
  const kernels::KernelSpec spec = kernels::stencilSpec(2);
  // Solver work is real with the fast paths off; budget 1 starves it.
  const std::string starved =
      analyzeFrame(spec, R"({"fastpath":"off","solver_budget":1})");
  const std::string unlimited = analyzeFrame(spec, R"({"fastpath":"off"})");

  std::string reference;
  {
    ServeOptions opts;
    opts.sessions = 1;
    AnalysisServer daemon(opts);
    reference = deterministicPart(daemon.process(unlimited));
  }

  TempDir dir("governance");
  ServeOptions opts;
  opts.sessions = 2;
  opts.cacheDir = dir.path.string();
  AnalysisServer daemon(opts);

  JsonValue starvedResp = parse(daemon.process(starved));
  EXPECT_TRUE(okOf(starvedResp));
  const JsonValue* gov = starvedResp.find("governance");
  ASSERT_NE(gov, nullptr);
  EXPECT_GT(gov->find("budget_exhausted")->asInt(), 0);
  EXPECT_GT(gov->find("degraded_pairs")->asInt(), 0);

  // Concurrent unlimited requests through the same store stay complete:
  // the starved run's exhausted verdicts must not satisfy them.
  std::vector<std::thread> clients;
  std::vector<std::string> lines(4);
  for (size_t c = 0; c < lines.size(); ++c)
    clients.emplace_back(
        [&, c] { lines[c] = daemon.process(unlimited); });
  for (auto& t : clients) t.join();
  for (const auto& line : lines) {
    EXPECT_EQ(deterministicPart(line), reference);
    JsonValue r = parse(line);
    const JsonValue* g = r.find("governance");
    ASSERT_NE(g, nullptr);
    EXPECT_EQ(g->find("budget_exhausted")->asInt(), 0);
    EXPECT_EQ(g->find("degraded_pairs")->asInt(), 0);
  }
}

TEST(ServerGovernance, InjectedFaultsStayPerRequest) {
  const kernels::KernelSpec spec = kernels::stencilSpec(2);
  const std::string clean = analyzeFrame(spec, R"({"fastpath":"off"})");
  // Width 1: which check faults is scheduling-dependent under a parallel
  // analysis (see smt::FaultInject), and these assertions name check 1.
  const std::string unknownFault = analyzeFrame(
      spec, R"({"fastpath":"off","fault_unknown_at":1,"threads":1})");
  const std::string throwFault = analyzeFrame(
      spec, R"({"fastpath":"off","fault_throw_at":1,"threads":1})");

  std::string reference;
  {
    ServeOptions opts;
    opts.sessions = 1;
    AnalysisServer daemon(opts);
    reference = deterministicPart(daemon.process(clean));
  }

  TempDir dir("faults");
  ServeOptions opts;
  opts.sessions = 2;
  opts.cacheDir = dir.path.string();
  AnalysisServer daemon(opts);

  // The injected-Unknown request answers ok but degraded (the forced
  // Unknown surfaces like a budget-exhausted check)...
  JsonValue degraded = parse(daemon.process(unknownFault));
  EXPECT_TRUE(okOf(degraded));
  EXPECT_GT(
      degraded.find("governance")->find("budget_exhausted")->asInt(), 0);
  // ...and the injected-throw request fails alone, with a typed error.
  JsonValue thrown = parse(daemon.process(throwFault));
  EXPECT_FALSE(okOf(thrown));
  EXPECT_EQ(errorCodeOf(thrown), "kernel_error");

  // Concurrent clean requests (sharing the store the faulted requests
  // were barred from) still match the fault-free reference byte for byte.
  std::vector<std::thread> clients;
  std::vector<std::string> lines(4);
  for (size_t c = 0; c < lines.size(); ++c)
    clients.emplace_back([&, c] {
      lines[c] = daemon.process(c % 2 == 0 ? clean : unknownFault);
    });
  for (auto& t : clients) t.join();
  for (size_t c = 0; c < lines.size(); ++c) {
    if (c % 2 == 0) {
      EXPECT_EQ(deterministicPart(lines[c]), reference);
    } else {
      EXPECT_TRUE(okOf(parse(lines[c])));
    }
  }

  // After all the faults, a fresh daemon on the same directory still
  // serves the clean verdicts (nothing poisoned the persisted records).
  {
    ServeOptions fresh;
    fresh.sessions = 1;
    fresh.cacheDir = dir.path.string();
    AnalysisServer daemon2(fresh);
    EXPECT_EQ(deterministicPart(daemon2.process(clean)), reference);
  }
}

// ---------------------------------------------------------------------------
// Single-flight under contention: 8 sessions racing one identical cold
// kernel perform exactly one cold run of fresh solver work between them.

long long cacheField(const JsonValue& r, const char* key) {
  const JsonValue* cache = r.find("cache");
  EXPECT_NE(cache, nullptr);
  if (cache == nullptr) return -1;
  const JsonValue* v = cache->find(key);
  EXPECT_NE(v, nullptr) << "missing cache." << key;
  return v != nullptr ? v->asInt() : -1;
}

TEST(ServerStress, EightRacingSessionsDoOneColdRunOfFreshWork) {
  const kernels::KernelSpec spec = kernels::stencilSpec(4);
  const std::string frame = analyzeFrame(spec);

  // Reference: a serial single-session daemon, cold store.
  std::string refReport;
  long long refFresh = 0, refTier2 = 0, refTaskTotal = 0, refPersisted = 0;
  {
    ServeOptions opts;
    opts.sessions = 1;
    AnalysisServer daemon(opts);
    const std::string line = daemon.process(frame);
    JsonValue r = parse(line);
    ASSERT_TRUE(okOf(r));
    refReport = deterministicPart(line);
    refFresh = cacheField(r, "fresh_solver_checks");
    refTier2 = cacheField(r, "fresh_tier2_solves");
    refPersisted = cacheField(r, "tasks_persisted");
    refTaskTotal = refPersisted + cacheField(r, "tasks_spliced") +
                   cacheField(r, "tasks_joined");
    ASSERT_GT(refFresh, 0);
  }

  ServeOptions opts;
  opts.sessions = 8;
  AnalysisServer daemon(opts);
  constexpr int kClients = 8;
  std::vector<std::string> lines(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back(
        [&daemon, &lines, &frame, c] { lines[c] = daemon.process(frame); });
  for (auto& t : clients) t.join();

  long long fresh = 0, tier2 = 0, persisted = 0;
  for (const auto& line : lines) {
    JsonValue r = parse(line);
    ASSERT_TRUE(okOf(r));
    // Byte-identical reports no matter who won which claim.
    EXPECT_EQ(deterministicPart(line), refReport);
    fresh += cacheField(r, "fresh_solver_checks");
    tier2 += cacheField(r, "fresh_tier2_solves");
    persisted += cacheField(r, "tasks_persisted");
    EXPECT_EQ(cacheField(r, "tasks_persisted") +
                  cacheField(r, "tasks_spliced") +
                  cacheField(r, "tasks_joined"),
              refTaskTotal);
  }
  // The single-flight guarantee: total fresh solver work across all eight
  // racing requests equals ONE single-session cold run — duplicates joined
  // the winner's claims instead of recomputing.
  EXPECT_EQ(fresh, refFresh);
  EXPECT_EQ(tier2, refTier2);
  EXPECT_EQ(persisted, refPersisted);

  // And the daemon's stats agree: no claim was abandoned mid-flight.
  JsonValue stats = parse(daemon.process(R"({"op":"stats"})"));
  ASSERT_TRUE(okOf(stats));
  const JsonValue* store = stats.find("store");
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->find("flight_unclaims")->asInt(), 0);
  EXPECT_EQ(store->find("task_stores")->asInt(), refPersisted);
}

TEST(ServerStress, FaultedWinnerNeverWedgesOrPoisonsRacingRequests) {
  const kernels::KernelSpec spec = kernels::stencilSpec(3);
  const std::string clean = analyzeFrame(spec, R"({"fastpath":"off"})");
  const std::string throwFault =
      analyzeFrame(spec, R"({"fastpath":"off","fault_throw_at":2})");
  // Unlike a fault (which detaches the store), a 1ms deadline cancels a
  // request that holds REAL single-flight claims mid-evaluation: its
  // claims must unwind so concurrent duplicates get promoted and
  // recompute — never hang, never inherit partial work.
  const std::string starved =
      analyzeFrame(spec, R"({"fastpath":"off","deadline_ms":1})");

  std::string reference;
  {
    ServeOptions opts;
    opts.sessions = 1;
    AnalysisServer daemon(opts);
    reference = deterministicPart(daemon.process(clean));
  }

  // Race clean analyses against mid-flight-failing duplicates of the same
  // kernel, repeatedly on one daemon: every clean response must match the
  // reference (the failed request's partial work never surfaces), every
  // faulted one must come back a typed error — promptly, never a hang.
  ServeOptions opts;
  opts.sessions = 8;
  AnalysisServer daemon(opts);
  for (int round = 0; round < 3; ++round) {
    std::vector<std::string> lines(8);
    std::vector<std::thread> clients;
    for (size_t c = 0; c < lines.size(); ++c)
      clients.emplace_back(
          [&daemon, &lines, &clean, &throwFault, &starved, c] {
            const std::string& frame =
                c % 4 == 0 ? throwFault : (c % 4 == 2 ? starved : clean);
            lines[c] = daemon.process(frame);
          });
    for (auto& t : clients) t.join();
    for (size_t c = 0; c < lines.size(); ++c) {
      if (c % 4 == 0) {
        EXPECT_EQ(errorCodeOf(parse(lines[c])), "kernel_error");
      } else if (c % 4 == 2) {
        // Deadline-cancelled mid-flight: answers ok (degraded), and its
        // abandoned claims were released, not left wedging the others.
        EXPECT_TRUE(okOf(parse(lines[c]))) << "round " << round;
      } else {
        EXPECT_EQ(deterministicPart(lines[c]), reference)
            << "round " << round;
      }
    }
  }
}

TEST(ServerStats, ExposesPoolOccupancyAndFlightCounters) {
  ServeOptions opts;
  opts.sessions = 1;
  opts.analysisThreads = 2;
  opts.allowOversubscribe = true;  // deterministic width on tiny CI boxes
  AnalysisServer daemon(opts);
  (void)daemon.process(analyzeFrame(kernels::stencilSpec(1)));
  JsonValue r = parse(daemon.process(R"({"op":"stats"})"));
  ASSERT_TRUE(okOf(r));

  const JsonValue* pool = r.find("pool");
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->find("workers")->asInt(), 2);
  EXPECT_EQ(pool->find("busy_workers")->asInt(), 0);  // idle at stats time
  EXPECT_EQ(pool->find("queue_depth")->asInt(), 0);
  ASSERT_NE(pool->find("queued_by_priority"), nullptr);
  EXPECT_EQ(pool->find("queued_by_priority")->elements().size(), 3u);
  EXPECT_GE(pool->find("jobs_run")->asInt(), 1);
  EXPECT_GE(pool->find("tasks_owner_run")->asInt() +
                pool->find("tasks_stolen")->asInt(),
            1);

  const JsonValue* store = r.find("store");
  ASSERT_NE(store, nullptr);
  for (const char* key :
       {"flight_claims", "flight_joins", "flight_unclaims"}) {
    ASSERT_NE(store->find(key), nullptr) << key;
    EXPECT_GE(store->find(key)->asInt(), 0) << key;
  }
  EXPECT_EQ(store->find("flight_unclaims")->asInt(), 0);

  // Priority is accepted per request (scheduling-only; the response is
  // identical), and a bad class is a schema violation.
  EXPECT_TRUE(okOf(parse(daemon.process(
      analyzeFrame(kernels::stencilSpec(1), R"({"priority":"low"})")))));
  EXPECT_EQ(errorCodeOf(parse(daemon.process(
                analyzeFrame(kernels::stencilSpec(1),
                             R"({"priority":"urgent"})")))),
            "bad_request");
}

// ---------------------------------------------------------------------------
// Hybrid safeguard over the wire.

TEST(ServerProtocol, HybridSafeguardOptionAddsSiteVerdictLines) {
  AnalysisServer daemon(ServeOptions{});
  const kernels::KernelSpec spec = kernels::stencilSpec(2);

  // Default analyses never render site lines (byte-locked report).
  const std::string plain = stringField(
      parse(daemon.process(analyzeFrame(
          spec, R"({"fastpath":"off","solver_budget":2})"))),
      "report");
  EXPECT_EQ(plain.find("site "), std::string::npos);

  // "safeguard": "formad" is the explicit spelling of the default.
  const std::string formad = stringField(
      parse(daemon.process(analyzeFrame(
          spec,
          R"({"fastpath":"off","solver_budget":2,"safeguard":"formad"})"))),
      "report");
  EXPECT_EQ(formad, plain);

  // Hybrid + a starved budget: unproven residue surfaces per access site.
  const std::string hybrid = stringField(
      parse(daemon.process(analyzeFrame(
          spec,
          R"({"fastpath":"off","solver_budget":2,"safeguard":"hybrid"})"))),
      "report");
  EXPECT_NE(hybrid.find("site "), std::string::npos);
  EXPECT_NE(hybrid.find("UNSAFE (guard residual)"), std::string::npos);

  // Hybrid with an unlimited budget: everything proves, no residue, and
  // the site lines are elided wherever the variable verdict is SAFE.
  const std::string proven = stringField(
      parse(daemon.process(
          analyzeFrame(spec, R"({"safeguard":"hybrid"})"))),
      "report");
  EXPECT_NE(proven.find("SAFE"), std::string::npos);
  EXPECT_EQ(proven.find("guard residual"), std::string::npos);

  // Unknown safeguard values are schema violations, not silent defaults.
  EXPECT_EQ(errorCodeOf(parse(daemon.process(
                analyzeFrame(spec, R"({"safeguard":"atomic"})")))),
            "bad_request");
  EXPECT_EQ(errorCodeOf(parse(daemon.process(
                analyzeFrame(spec, R"({"safeguard":7})")))),
            "bad_request");
}

// ---------------------------------------------------------------------------
// Latency percentiles (support/percentile.h, used by bench/serve).

TEST(Percentile, DegenerateSamplesAreWellDefined) {
  EXPECT_EQ(support::percentileOf({}, 99), 0.0);
  for (double p : {0.0, 50.0, 99.0, 100.0})
    EXPECT_EQ(support::percentileOf({3.25}, p), 3.25);
}

TEST(Percentile, SmallSampleRankRounding) {
  const std::vector<double> xs = {5, 1, 4, 2, 3};  // sorted: 1 2 3 4 5
  EXPECT_DOUBLE_EQ(support::percentileOf(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(support::percentileOf(xs, 50), 3.0);
  // p99 over n=5: rank = 0.99 * 4 = 3.96 interpolates between the two
  // largest samples — NOT rounded up to the max.
  EXPECT_DOUBLE_EQ(support::percentileOf(xs, 99), 4.96);
  EXPECT_DOUBLE_EQ(support::percentileOf(xs, 100), 5.0);
  // Two samples: p99 sits just below the max.
  EXPECT_DOUBLE_EQ(support::percentileOf({10, 20}, 99), 19.9);
}

TEST(Percentile, OutOfRangeRequestsClampToExtremes) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(support::percentileOf(xs, -5), 1.0);
  EXPECT_DOUBLE_EQ(support::percentileOf(xs, 150), 5.0);
}

}  // namespace
