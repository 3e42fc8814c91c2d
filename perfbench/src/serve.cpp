// serve_cold and serve_warm: an in-process analysis daemon (2 sessions,
// shared pool on auto) driven by 2 closed-loop clients, each waiting for
// its reply before sending the next request.
//
//   serve_cold  every analyze/racecheck source is a fresh rename, so every
//               proof is new and written to a fresh memory-only store: the
//               store's write path (keys, records, single-flight) without
//               file IO, whose cost on the VM disk swings too far to bound.
//   serve_warm  set-up fills a store with the exact content to replay,
//               destroys that daemon and starts a new one on the same
//               directory: the store's read path (splices, key building).
#include <algorithm>
#include <filesystem>
#include <iostream>
#include <memory>
#include <thread>

#include "common.h"
#include "paper.h"
#include "server/json.h"
#include "server/protocol.h"
#include "server/server.h"

namespace perfbench {

namespace {

using formad::server::JsonValue;
namespace fs = std::filesystem;

enum class Kind { Analyze, Racecheck, Lint };

struct RequestClass {
  std::string name;  // "<op>.<kernel>"
  Kind kind = Kind::Analyze;
  PaperKernel kernel;
};

struct Request {
  int cls = 0;
  std::string frame;
  Renamer::Renamed names;
};

constexpr int kClients = 2;
constexpr int kSetupReps = 3;
// Timed ops per class per second of --seconds.
constexpr double kColdRate = 50;
constexpr double kWarmRate = 30;
// Untimed warm-up rounds on disjoint content before the timed window (and,
// in serve_cold, before each block's fresh daemon).
constexpr int kWarmupRounds = 3;

std::vector<RequestClass> requestClasses(bool warm) {
  std::vector<RequestClass> out;
  for (PaperKernel& k : paperKernels()) {
    // A cold LBM analysis with a store takes 0.3-0.5 s: too slow for 100
    // samples per run, so only the warm workload replays it.
    if (!warm && k.cls == "lbm") continue;
    out.push_back({"analyze." + k.cls, Kind::Analyze, std::move(k)});
  }
  for (PaperKernel& k : racyMutants())
    out.push_back({"racecheck." + k.cls, Kind::Racecheck, std::move(k)});
  PaperKernel lint = lintKernel();
  out.push_back({"lint." + lint.cls, Kind::Lint, std::move(lint)});
  return out;
}

Request makeRequest(const std::vector<RequestClass>& classes, int cls,
                    Renamer::Renamed names, long long id) {
  const RequestClass& c = classes[static_cast<size_t>(cls)];
  JsonValue req = JsonValue::object();
  req.set("id", JsonValue::integer(id));
  req.set("op", JsonValue::str(c.kind == Kind::Analyze     ? "analyze"
                               : c.kind == Kind::Racecheck ? "racecheck"
                                                           : "lint"));
  req.set("source", JsonValue::str(names.source));
  if (c.kind == Kind::Analyze) {
    JsonValue in = JsonValue::array();
    for (const auto& v : c.kernel.spec.independents) in.push(JsonValue::str(v));
    req.set("independents", std::move(in));
    JsonValue dep = JsonValue::array();
    for (const auto& v : c.kernel.spec.dependents) dep.push(JsonValue::str(v));
    req.set("dependents", std::move(dep));
  }
  return {cls, req.dump(), std::move(names)};
}

/// Replays `reqs` from kClients closed-loop clients; client c sends every
/// kClients-th request. Fills round-trip latencies and responses.
void replay(formad::server::AnalysisServer& daemon,
            const std::vector<Request>& reqs, Tracer& tracer,
            std::vector<double>& latencyMs, std::vector<std::string>& resp) {
  latencyMs.assign(reqs.size(), 0.0);
  resp.assign(reqs.size(), std::string());
  std::vector<std::jthread> clients;  // joined on every exit path
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = static_cast<size_t>(c); i < reqs.size();
           i += kClients) {
        const long long id = static_cast<long long>(i);
        Tracer::Scope span(tracer, "server.request", id);
        const auto t0 = Clock::now();
        try {
          resp[i] = daemon.process(reqs[i].frame);
        } catch (const std::exception& e) {
          resp[i].clear();  // fails its output check
          std::cerr << "request " << i << " threw: " << e.what() << "\n";
        }
        latencyMs[i] = msBetween(t0, Clock::now());
        if (tracer.enabled()) {
          // The service part runs on a session thread; the response's
          // wall_ms tells how long it took.
          try {
            const JsonValue r = formad::server::parseJson(resp[i]);
            if (const JsonValue* w = r.find("wall_ms"))
              tracer.addChildEndingNow("server.service", id, w->asDouble());
          } catch (const std::exception&) {
            // Malformed: no service span; the output check counts it.
          }
        }
      }
    });
  }
}

/// Checks one response against Table 1 and the fixtures.
bool checkResponse(const Golden& golden, const RequestClass& c,
                   const Request& req, const std::string& line,
                   JsonValue& parsed) {
  try {
    parsed = formad::server::parseJson(line);
  } catch (const std::exception& e) {
    std::cerr << c.name << ": unparseable response\n";
    return false;
  }
  const JsonValue* ok = parsed.find("ok");
  if (ok == nullptr || ok->kind() != JsonValue::Kind::Bool || !ok->asBool()) {
    std::cerr << c.name << ": " << line.substr(0, 500) << "\n";
    return false;
  }
  const JsonValue* report = parsed.find("report");
  if (report == nullptr) return false;
  const std::string text = undoRename(report->asString(), req.names);
  switch (c.kind) {
    case Kind::Analyze:
      return golden.matches("analyze_" + c.kernel.cls, text);
    case Kind::Racecheck: {
      const JsonValue* v = parsed.find("verdict");
      const bool racy = v != nullptr &&
                        v->asString() == golden.racecheckVerdict(c.kernel.cls);
      if (!racy) std::cerr << c.name << ": wrong race verdict\n";
      return golden.matches("racecheck_" + c.kernel.cls, text) && racy;
    }
    case Kind::Lint: {
      const JsonValue* clean = parsed.find("clean");
      const bool flagged = clean != nullptr && !clean->asBool();
      if (!flagged) std::cerr << c.name << ": lint missed the race\n";
      return golden.matches("lint_" + c.kernel.cls, text) && flagged;
    }
  }
  return false;
}

long long member(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  return v == nullptr ? 0 : v->asInt();
}

/// The store and pool sections of a stats response.
struct Snapshot {
  JsonValue store, pool;
};
Snapshot snapshot(formad::server::AnalysisServer& daemon) {
  const JsonValue r =
      formad::server::parseJson(daemon.process(R"({"op":"stats"})"));
  return {*r.find("store"), *r.find("pool")};
}

/// Adds the store and pool counters that moved from `before` to `after`.
void addCounterDeltas(const Snapshot& before, const Snapshot& after,
                      Layers& l) {
  auto delta = [&](const JsonValue Snapshot::*part, const char* key) {
    return static_cast<double>(member(after.*part, key) -
                               member(before.*part, key));
  };
  l.taskHits += delta(&Snapshot::store, "task_hits");
  l.taskMisses += delta(&Snapshot::store, "task_misses");
  l.taskStores += delta(&Snapshot::store, "task_stores");
  l.checkHits += delta(&Snapshot::store, "check_hits");
  l.checkMisses += delta(&Snapshot::store, "check_misses");
  l.checkStores += delta(&Snapshot::store, "check_stores");
  l.memoryHits += delta(&Snapshot::store, "check_memory_hits") +
                  delta(&Snapshot::store, "task_memory_hits");
  l.flightJoins += delta(&Snapshot::store, "flight_joins");
  l.jobsRun += delta(&Snapshot::pool, "jobs_run");
  l.tasksStolen += delta(&Snapshot::pool, "tasks_stolen");
  l.tasksOwnerRun += delta(&Snapshot::pool, "tasks_owner_run");
}

/// A daemon over the store in `dir` ("" = memory-only store).
std::unique_ptr<formad::server::AnalysisServer> startDaemon(
    const std::string& dir) {
  formad::server::ServeOptions o;
  o.sessions = 2;
  o.analysisThreads = 0;  // auto: hardware concurrency minus sessions
  o.cacheDir = dir;
  return std::make_unique<formad::server::AnalysisServer>(o);
}

}  // namespace

void runServe(const Args& args, bool warm, Tracer& tracer, Outcome& out) {
  const Golden golden(args.goldenDir, args.recordGolden);
  const std::vector<RequestClass> classes = requestClasses(warm);
  const int nc = static_cast<int>(classes.size());
  std::mt19937_64 rng(args.seed);
  Renamer renamer(args.seed * 0x9e3779b97f4a7c15ULL + 2);
  const std::vector<int> bounds =
      blockBounds(opsPerClass(warm ? kWarmRate : kColdRate, args));
  const size_t nb = bounds.size() - 1;
  Tracer off(false);

  auto freshFor = [&](int cls) {
    return renamer.fresh(classes[static_cast<size_t>(cls)].kernel.spec.source);
  };
  // One fixed rename per class (serve_warm's replayed content).
  auto fixedContent = [&]() {
    std::vector<Renamer::Renamed> names;
    for (int c = 0; c < nc; ++c) names.push_back(freshFor(c));
    return names;
  };
  long long nextId = 0;
  auto build = [&](const std::vector<int>& order,
                   const std::vector<Renamer::Renamed>* fixed) {
    std::vector<Request> reqs;
    for (int c : order)
      reqs.push_back(makeRequest(
          classes, c,
          fixed != nullptr ? (*fixed)[static_cast<size_t>(c)] : freshFor(c),
          nextId++));
    return reqs;
  };
  // The requests of every block of a window, plus its warm-up rounds: one
  // set, or in serve_cold one per block (each block's fresh daemon).
  struct Plan {
    std::vector<std::vector<Request>> blocks, warmups;
  };
  auto plan = [&](const std::vector<Renamer::Renamed>* fixed,
                  const std::vector<Renamer::Renamed>* warmupContent) {
    Plan p;
    for (size_t b = 0; b < nb; ++b) {
      p.blocks.push_back(
          build(shuffledRounds(nc, bounds[b + 1] - bounds[b], rng), fixed));
      if (b == 0 || !warm)
        p.warmups.push_back(
            build(shuffledRounds(nc, kWarmupRounds, rng), warmupContent));
    }
    return p;
  };
  auto runChecked = [&](formad::server::AnalysisServer& d,
                        const std::vector<Request>& reqs) {
    std::vector<double> lat;
    std::vector<std::string> resp;
    replay(d, reqs, off, lat, resp);
    for (size_t i = 0; i < reqs.size(); ++i) {
      JsonValue parsed;
      if (!checkResponse(golden, classes[static_cast<size_t>(reqs[i].cls)],
                         reqs[i], resp[i], parsed))
        throw std::runtime_error("set-up request failed its output check");
    }
  };

  std::unique_ptr<formad::server::AnalysisServer> daemon;
  std::string storeDir;
  Plan timed;
  std::vector<double> setupSeconds;
  const int reps = args.trace ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    daemon.reset();
    if (!storeDir.empty()) fs::remove_all(storeDir);
    const auto t0 = Clock::now();
    if (warm) {
      storeDir = args.workDir + "/store-" + std::to_string(rep);
      fs::remove_all(storeDir);
      const auto replayed = fixedContent();
      const auto warmupContent = fixedContent();
      timed = plan(&replayed, &warmupContent);
      // Fill the store with everything the restarted daemon will replay.
      std::vector<int> once(static_cast<size_t>(nc));
      for (int c = 0; c < nc; ++c) once[static_cast<size_t>(c)] = c;
      auto filler = startDaemon(storeDir);
      runChecked(*filler, build(once, &replayed));
      runChecked(*filler, build(once, &warmupContent));
    } else {
      timed = plan(nullptr, nullptr);
    }
    daemon = startDaemon(storeDir);
    runChecked(*daemon, timed.warmups[0]);
    setupSeconds.push_back(msBetween(t0, Clock::now()) / 1000.0);
  }
  std::cout << "store: " << (warm ? storeDir : "memory only") << "\n";

  // Per-layer sums of the traced window over all its blocks.
  std::map<int, std::pair<double, int>> serviceByKind;
  std::vector<Snapshot> samples;

  // One timed block; `traced` adds spans, samples the pool and, with `l`,
  // sums the per-layer figures.
  auto window = [&](const std::vector<Request>& reqs, bool traced,
                    LatencyBook& book, Layers* l) {
    const Snapshot before = l != nullptr ? snapshot(*daemon) : Snapshot{};
    std::jthread sampler;
    if (traced) {
      sampler = std::jthread([&](const std::stop_token& stop) {
        while (!stop.stop_requested()) {
          samples.push_back(snapshot(*daemon));
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
      });
    }
    std::vector<double> lat;
    std::vector<std::string> resp;
    const double cpu0 = processCpuMs();
    const auto t0 = Clock::now();
    replay(*daemon, reqs, traced ? tracer : off, lat, resp);
    Window w;
    w.wallMs = msBetween(t0, Clock::now());
    w.cpuMs = processCpuMs() - cpu0;
    w.ops = static_cast<long long>(reqs.size());
    if (sampler.joinable()) {
      sampler.request_stop();
      sampler.join();
    }
    if (l != nullptr) addCounterDeltas(before, snapshot(*daemon), *l);

    for (size_t i = 0; i < reqs.size(); ++i) {
      const RequestClass& c = classes[static_cast<size_t>(reqs[i].cls)];
      ++out.attempted;
      JsonValue parsed;
      if (!checkResponse(golden, c, reqs[i], resp[i], parsed)) {
        ++out.failed;
        continue;
      }
      book.add(c.name, lat[i]);
      if (l == nullptr) continue;
      const double wall = parsed.find("wall_ms")->asDouble();
      l->serviceMs += wall;
      l->dispatchMs += lat[i] - wall;
      auto& [sum, n] = serviceByKind[static_cast<int>(c.kind)];
      sum += wall;
      ++n;
      if (const JsonValue* t = parsed.find("tiers")) {
        l->queries += static_cast<double>(member(*t, "queries"));
        l->tier0 += static_cast<double>(member(*t, "tier0"));
        l->tier1 += static_cast<double>(member(*t, "tier1"));
        l->tier2 += static_cast<double>(member(*t, "tier2"));
        l->cacheHits += static_cast<double>(member(*t, "cached"));
      }
      if (const JsonValue* cache = parsed.find("cache")) {
        l->tasksSpliced += static_cast<double>(member(*cache, "tasks_spliced"));
        l->tasksPersisted +=
            static_cast<double>(member(*cache, "tasks_persisted"));
        l->freshSolverChecks +=
            static_cast<double>(member(*cache, "fresh_solver_checks"));
      }
    }
    return w;
  };
  // Every block of a window. serve_cold runs each block after the first on
  // a fresh daemon warmed up on its own content: the memory-only store keeps
  // every record (about 0.1 MB per op), and a fresh daemon per block keeps
  // the process small however long the window.
  auto blocked = [&](const Plan& p, bool traced, Layers* l) {
    std::vector<Block> blocks;
    for (size_t b = 0; b < p.blocks.size(); ++b) {
      if (!warm && b > 0) {
        daemon.reset();
        daemon = startDaemon(storeDir);
        runChecked(*daemon, p.warmups[b]);
      }
      Block& blk = blocks.emplace_back();
      blk.w = window(p.blocks[b], traced, blk.book, l);
    }
    return blocks;
  };

  const std::vector<Block> blocks = blocked(timed, false, nullptr);
  if (!args.trace) {
    addEndToEnd(out, setupSeconds, blocks);
    daemon.reset();
    if (warm) fs::remove_all(storeDir);
    return;
  }

  // Traced run: a second window of the same shape. serve_warm replays the
  // same content again; serve_cold gets fresh renames.
  const Plan traced = warm ? timed : plan(nullptr, nullptr);
  Layers l;
  const std::vector<Block> tracedBlocks = blocked(traced, true, &l);
  double ops = 0;
  for (const auto& reqs : traced.blocks)
    ops += static_cast<double>(reqs.size());
  l.taskHitRate = l.taskHits + l.taskMisses > 0
                      ? l.taskHits / (l.taskHits + l.taskMisses)
                      : 0.0;
  auto mean = [&](Kind k) {
    const auto it = serviceByKind.find(static_cast<int>(k));
    return it == serviceByKind.end() ? 0.0
                                     : it->second.first / it->second.second;
  };
  l.racecheckServiceMs = mean(Kind::Racecheck);
  l.lintServiceMs = mean(Kind::Lint);
  for (const Snapshot& s : samples) {
    l.busyWorkers += static_cast<double>(member(s.pool, "busy_workers"));
    l.queueDepth += static_cast<double>(member(s.pool, "queue_depth"));
  }
  if (!samples.empty()) {
    l.busyWorkers /= static_cast<double>(samples.size());
    l.queueDepth /= static_cast<double>(samples.size());
  }
  for (double* v : {&l.serviceMs, &l.dispatchMs, &l.queries, &l.tier0,
                    &l.tier1, &l.tier2, &l.cacheHits, &l.tasksSpliced,
                    &l.tasksPersisted, &l.freshSolverChecks})
    *v /= ops;
  daemon.reset();
  if (warm) {
    for (const auto& e : fs::recursive_directory_iterator(storeDir)) {
      if (!e.is_regular_file()) continue;
      l.storeFiles += 1;
      l.storeBytes += static_cast<double>(e.file_size());
    }
    fs::remove_all(storeDir);
  }

  // The request layer alone: parseRequest over every frame of the run.
  const auto p0 = Clock::now();
  for (const auto& reqs : traced.blocks)
    for (const Request& r : reqs) (void)formad::server::parseRequest(r.frame);
  l.requestParseUs = msBetween(p0, Clock::now()) * 1000.0 / ops;

  l.overheadPct =
      (blockedBalanced(tracedBlocks, 50) / blockedBalanced(blocks, 50) - 1) *
      100;
  addLayerMetrics(out, l, tracer, static_cast<long long>(ops));
}

}  // namespace perfbench
