#include "server/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <istream>
#include <ostream>

#include "absint/lint.h"
#include "driver/driver.h"
#include "formad/formad.h"
#include "parser/parser.h"
#include "racecheck/racecheck.h"
#include "support/diagnostics.h"
#include "support/pool.h"

namespace formad::server {

namespace {

/// Best-effort id recovery for frames that parsed as JSON but failed
/// request validation (only called on the error path, so the reparse cost
/// does not matter).
JsonValue tryExtractId(const std::string& frame) {
  try {
    JsonValue doc = parseJson(frame);
    if (doc.kind() == JsonValue::Kind::Object) {
      if (const JsonValue* id = doc.find("id")) {
        if (id->kind() == JsonValue::Kind::Int ||
            id->kind() == JsonValue::Kind::String)
          return *id;
      }
    }
  } catch (const Error&) {
  }
  return JsonValue::null();
}

/// Resolves the head kernel of a request: explicit name, else the sole
/// kernel of the program. Throws formad::Error (-> kernel_error).
const ir::Kernel& resolveHead(const ir::Program& program,
                              const std::string& head) {
  if (!head.empty()) return program.get(head);
  if (program.kernels().size() == 1) return *program.kernels()[0];
  fail("source defines " + std::to_string(program.kernels().size()) +
       " kernels; pick one with 'head'");
}

/// Effective per-check budget: 0 = daemon default, -1 = force unlimited.
long long effectiveBudget(long long requested, long long daemonDefault) {
  if (requested == 0) return daemonDefault;
  return requested < 0 ? 0 : requested;
}

int effectiveDeadline(int requested, int daemonDefault) {
  if (requested == 0) return daemonDefault;
  return requested < 0 ? 0 : requested;
}

}  // namespace

AnalysisServer::AnalysisServer(const ServeOptions& opts) : opts_(opts) {
  const driver::ServePoolPlan plan = driver::resolveServePool(
      opts_.sessions, opts_.analysisThreads, opts_.allowOversubscribe);
  poolWorkers_ = plan.poolWorkers;
  sizingWarning_ = plan.warning;
  store_ = std::make_unique<smt::PersistentVerdictStore>(opts_.cacheDir);
  if (poolWorkers_ > 0)
    pool_ = std::make_unique<support::SharedAnalysisPool>(poolWorkers_);
  maxQueue_ = static_cast<size_t>(opts_.sessions) * 64;
  sessions_.reserve(static_cast<size_t>(opts_.sessions));
  for (int i = 0; i < opts_.sessions; ++i)
    sessions_.emplace_back([this] { sessionLoop(); });
}

AnalysisServer::~AnalysisServer() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  workAvailable_.notify_all();
  spaceAvailable_.notify_all();
  for (auto& t : sessions_) t.join();
}

std::future<std::string> AnalysisServer::submit(std::string frame) {
  std::promise<std::string> done;
  std::future<std::string> fut = done.get_future();
  if (shutdownRequested()) {
    done.set_value(errorResponse(JsonValue::null(), "shutting_down",
                                 "the daemon is shutting down")
                       .dump());
    return fut;
  }
  Job job{std::move(frame), std::move(done)};
  {
    std::unique_lock<std::mutex> lk(mu_);
    spaceAvailable_.wait(
        lk, [this] { return stop_ || queue_.size() < maxQueue_; });
    if (stop_) {
      job.done.set_value(errorResponse(JsonValue::null(), "shutting_down",
                                       "the daemon is shutting down")
                             .dump());
      return fut;
    }
    queue_.push_back(std::move(job));
  }
  workAvailable_.notify_one();
  return fut;
}

std::string AnalysisServer::process(const std::string& frame) {
  return submit(frame).get();
}

std::string AnalysisServer::oversizedResponse() const {
  return errorResponse(JsonValue::null(), "oversized",
                       "request exceeds the " +
                           std::to_string(opts_.maxRequestBytes) +
                           "-byte frame limit")
      .dump();
}

void AnalysisServer::sessionLoop() {
  // Each session holds one client handle onto the daemon's shared pool
  // (Client::run is driven from this thread; stealing workers live in
  // the pool). Request handling never spawns threads — the pool's workers
  // were spun up once in the constructor.
  std::unique_ptr<support::SharedAnalysisPool::Client> client;
  if (pool_ != nullptr) client = pool_->makeClient();
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lk(mu_);
      workAvailable_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and the queue drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    spaceAvailable_.notify_one();
    try {
      job.done.set_value(handle(job.frame, client.get()));
    } catch (...) {
      job.done.set_exception(std::current_exception());
    }
  }
}

std::string AnalysisServer::handle(
    const std::string& frame, support::SharedAnalysisPool::Client* client) {
  const auto t0 = std::chrono::steady_clock::now();
  JsonValue id = JsonValue::null();
  try {
    Request req = parseRequest(frame);
    id = req.id;
    JsonValue resp = dispatch(req, client);
    const auto t1 = std::chrono::steady_clock::now();
    resp.set("wall_ms",
             JsonValue::number(
                 std::chrono::duration<double, std::milli>(t1 - t0).count()));
    return resp.dump();
  } catch (const ProtocolError& e) {
    nErrors_.fetch_add(1, std::memory_order_relaxed);
    return errorResponse(tryExtractId(frame), e.code(), e.what()).dump();
  } catch (const Error& e) {
    nErrors_.fetch_add(1, std::memory_order_relaxed);
    return errorResponse(id, "kernel_error", e.what()).dump();
  } catch (const std::exception& e) {
    nErrors_.fetch_add(1, std::memory_order_relaxed);
    return errorResponse(id, "internal", e.what()).dump();
  }
}

JsonValue AnalysisServer::dispatch(
    const Request& req, support::SharedAnalysisPool::Client* client) {
  // Per-request fairness class: the client's priority governs which jobs
  // the shared pool's workers steal from first, so a queue of low-priority
  // bulk analyses never starves an interactive high-priority one.
  // Scheduling only — reports are byte-identical at any priority.
  if (client != nullptr) client->setPriority(req.options.priority);
  switch (req.op) {
    case Op::Analyze:
      nAnalyze_.fetch_add(1, std::memory_order_relaxed);
      return handleAnalyze(req, client);
    case Op::Racecheck:
      nRacecheck_.fetch_add(1, std::memory_order_relaxed);
      return handleRacecheck(req, client);
    case Op::Lint:
      nLint_.fetch_add(1, std::memory_order_relaxed);
      return handleLint(req);
    case Op::Stats:
      nStats_.fetch_add(1, std::memory_order_relaxed);
      return handleStats(req);
    case Op::Shutdown: {
      nShutdown_.fetch_add(1, std::memory_order_relaxed);
      shutdown_.store(true, std::memory_order_release);
      // Wake submitters blocked on a full queue so they can observe the
      // flag instead of waiting on sessions that will stop getting work.
      spaceAvailable_.notify_all();
      return okResponse(req);
    }
  }
  fail("unreachable op");
}

JsonValue AnalysisServer::handleAnalyze(
    const Request& req, support::SharedAnalysisPool::Client* pool) {
  ir::Program program = parser::parseProgram(req.source);
  const ir::Kernel& primal = resolveHead(program, req.head);

  const RequestOptions& o = req.options;
  driver::DriverOptions d;
  d.fastpath = o.fastpath;
  d.absint = o.absint;
  // "safeguard": "hybrid" analyzes with per-(var, access-site) verdicts;
  // the report gains site lines, default requests stay byte-identical.
  if (o.hybridSafeguard) d.mode = driver::AdjointMode::Hybrid;
  d.solverStepBudget = effectiveBudget(o.solverStepBudget,
                                       opts_.defaultSolverBudget);
  d.analysisDeadlineMs = effectiveDeadline(o.deadlineMs,
                                           opts_.defaultDeadlineMs);
  d.racecheck.paramValues = o.pins;
  d.racecheck.colorings = o.colorings;
  if (o.threads == 1) {
    d.analysisThreads = 1;  // explicit serial request: skip the pool
  } else {
    d.analysisPool = pool;  // null when the daemon itself is serial
    d.analysisThreads = 1;
  }
  smt::FaultInject fault;
  if (o.hasFault()) {
    fault.unknownAtCheck = o.faultUnknownAt;
    fault.throwAtCheck = o.faultThrowAt;
    d.faultInject = &fault;
  }
  // The driver's resolveStore drops the store while fault injection is
  // active, keeping injected verdicts out of the shared store.
  d.verdictStore = store_.get();

  core::KernelAnalysis analysis =
      driver::analyze(primal, req.independents, req.dependents, d);

  JsonValue resp = okResponse(req);
  resp.set("kernel", JsonValue::str(primal.name));
  // The report is a pure function of (source, options): describe() without
  // timing plus the tier breakdown, byte-identical at any session count,
  // arrival order, pool width, or store temperature.
  resp.set("report", JsonValue::str(core::describe(analysis, false) +
                                    core::describeTiers(analysis)));
  JsonValue tiers = JsonValue::object();
  tiers.set("queries", JsonValue::integer(analysis.queries()));
  tiers.set("tier0", JsonValue::integer(analysis.tier0Hits()));
  tiers.set("tier1", JsonValue::integer(analysis.tier1Hits()));
  tiers.set("tier2", JsonValue::integer(analysis.tier2Checks()));
  tiers.set("cached", JsonValue::integer(analysis.cacheHits()));
  tiers.set("absint_facts", JsonValue::integer(analysis.absintFacts()));
  resp.set("tiers", std::move(tiers));
  JsonValue gov = JsonValue::object();
  gov.set("budget_exhausted",
          JsonValue::integer(analysis.budgetExhaustedChecks()));
  gov.set("degraded_pairs", JsonValue::integer(analysis.degradedPairs()));
  resp.set("governance", std::move(gov));
  JsonValue cache = JsonValue::object();
  cache.set("tasks_spliced", JsonValue::integer(analysis.tasksSpliced()));
  cache.set("tasks_joined", JsonValue::integer(analysis.tasksJoined()));
  cache.set("tasks_persisted", JsonValue::integer(analysis.tasksPersisted()));
  cache.set("fresh_solver_checks",
            JsonValue::integer(analysis.freshSolverChecks()));
  cache.set("fresh_tier2_solves",
            JsonValue::integer(analysis.freshTier2Solves()));
  resp.set("cache", std::move(cache));
  return resp;
}

JsonValue AnalysisServer::handleRacecheck(
    const Request& req, support::SharedAnalysisPool::Client* pool) {
  ir::Program program = parser::parseProgram(req.source);
  const ir::Kernel& primal = resolveHead(program, req.head);

  const RequestOptions& o = req.options;
  racecheck::RaceCheckOptions r;
  r.paramValues = o.pins;
  r.colorings = o.colorings;
  r.fastpath = o.fastpath;
  r.solverSteps = effectiveBudget(o.solverStepBudget,
                                  opts_.defaultSolverBudget);
  r.deadlineMs = effectiveDeadline(o.deadlineMs, opts_.defaultDeadlineMs);
  if (o.threads != 1) r.pool = pool;
  smt::FaultInject fault;
  if (o.hasFault()) {
    fault.unknownAtCheck = o.faultUnknownAt;
    fault.throwAtCheck = o.faultThrowAt;
    r.faultInject = &fault;
  } else {
    // Injected verdicts never reach the shared store; the store is only
    // attached to clean requests.
    r.store = store_.get();
  }

  racecheck::RaceReport report = racecheck::checkKernelRaces(primal, r);

  long long exhausted = 0, degraded = 0;
  for (const auto& region : report.regions) {
    exhausted += region.budgetExhaustedChecks;
    degraded += region.degradedPairs;
  }

  JsonValue resp = okResponse(req);
  resp.set("kernel", JsonValue::str(primal.name));
  resp.set("verdict", JsonValue::str(racecheck::to_string(report.overall())));
  resp.set("report", JsonValue::str(report.describe()));
  JsonValue gov = JsonValue::object();
  gov.set("budget_exhausted", JsonValue::integer(exhausted));
  gov.set("degraded_pairs", JsonValue::integer(degraded));
  resp.set("governance", std::move(gov));
  return resp;
}

JsonValue AnalysisServer::handleLint(const Request& req) {
  ir::Program program = parser::parseProgram(req.source);
  absint::LintOptions lopts;
  lopts.paramValues = req.options.pins;

  // Like the CLI: an explicit head lints one kernel, otherwise all.
  std::string rendered;
  long long findings = 0;
  bool matched = false;
  for (const auto& kp : program.kernels()) {
    if (!req.head.empty() && kp->name != req.head) continue;
    matched = true;
    absint::LintReport report = absint::lintKernel(*kp, lopts);
    rendered += report.render();
    findings += static_cast<long long>(report.findings.size());
  }
  if (!matched) fail("no kernel named '" + req.head + "' in source");

  JsonValue resp = okResponse(req);
  resp.set("report", JsonValue::str(rendered));
  resp.set("findings", JsonValue::integer(findings));
  resp.set("clean", JsonValue::boolean(findings == 0));
  return resp;
}

JsonValue AnalysisServer::handleStats(const Request& req) {
  JsonValue resp = okResponse(req);
  resp.set("sessions", JsonValue::integer(opts_.sessions));
  // Effective analysis width a parallel request sees: the shared pool's
  // workers plus the session thread driving the job, or 1 inline.
  resp.set("analysis_threads",
           JsonValue::integer(pool_ != nullptr ? poolWorkers_ + 1 : 1));
  resp.set("cache_dir", JsonValue::str(opts_.cacheDir));
  JsonValue ops = JsonValue::object();
  ops.set("analyze",
          JsonValue::integer(nAnalyze_.load(std::memory_order_relaxed)));
  ops.set("racecheck",
          JsonValue::integer(nRacecheck_.load(std::memory_order_relaxed)));
  ops.set("lint", JsonValue::integer(nLint_.load(std::memory_order_relaxed)));
  ops.set("stats",
          JsonValue::integer(nStats_.load(std::memory_order_relaxed)));
  ops.set("shutdown",
          JsonValue::integer(nShutdown_.load(std::memory_order_relaxed)));
  ops.set("errors",
          JsonValue::integer(nErrors_.load(std::memory_order_relaxed)));
  resp.set("requests", std::move(ops));
  const smt::PersistentVerdictStore::Stats s = store_->stats();
  JsonValue store = JsonValue::object();
  store.set("check_hits", JsonValue::integer(s.checkHits));
  store.set("check_misses", JsonValue::integer(s.checkMisses));
  store.set("check_stores", JsonValue::integer(s.checkStores));
  store.set("task_hits", JsonValue::integer(s.taskHits));
  store.set("task_misses", JsonValue::integer(s.taskMisses));
  store.set("task_stores", JsonValue::integer(s.taskStores));
  store.set("check_memory_hits", JsonValue::integer(s.checkMemoryHits));
  store.set("task_memory_hits", JsonValue::integer(s.taskMemoryHits));
  // Single-flight duplicate suppression (DESIGN.md §12): claims taken,
  // waiters served by a winner's publish, claims released unpublished.
  store.set("flight_claims", JsonValue::integer(s.flightClaims));
  store.set("flight_joins", JsonValue::integer(s.flightJoins));
  store.set("flight_unclaims", JsonValue::integer(s.flightUnclaims));
  resp.set("store", std::move(store));
  JsonValue pool = JsonValue::object();
  if (pool_ != nullptr) {
    const support::SharedAnalysisPool::Stats p = pool_->stats();
    pool.set("workers", JsonValue::integer(p.workers));
    pool.set("busy_workers", JsonValue::integer(p.busyWorkers));
    pool.set("queue_depth", JsonValue::integer(p.queuedJobs));
    JsonValue perClass = JsonValue::array();
    for (const int c : p.queuedByPriority) perClass.push(JsonValue::integer(c));
    pool.set("queued_by_priority", std::move(perClass));
    pool.set("jobs_run", JsonValue::integer(p.jobsRun));
    pool.set("tasks_stolen", JsonValue::integer(p.tasksStolen));
    pool.set("tasks_owner_run", JsonValue::integer(p.tasksOwnerRun));
  } else {
    pool.set("workers", JsonValue::integer(0));
  }
  resp.set("pool", std::move(pool));
  return resp;
}

// ---------------------------------------------------------------------------
// Serving loops.

namespace {

/// Enqueues a batch of frames and appends the response futures in order.
void submitFrames(AnalysisServer& server,
                  std::vector<LineFramer::Frame>& frames,
                  std::deque<std::future<std::string>>& pending) {
  for (auto& fr : frames) {
    if (fr.oversized) {
      std::promise<std::string> p;
      p.set_value(server.oversizedResponse());
      pending.push_back(p.get_future());
    } else {
      pending.push_back(server.submit(std::move(fr.text)));
    }
  }
  frames.clear();
}

}  // namespace

void serveStdio(AnalysisServer& server, std::istream& in, std::ostream& out) {
  // Line-oriented reading keeps stdio mode interactive (a response is
  // written as soon as it is ready, while later requests are still being
  // read); the chunk-tolerant framer still enforces the frame limit.
  LineFramer framer(server.options().maxRequestBytes);
  std::vector<LineFramer::Frame> frames;
  std::deque<std::future<std::string>> pending;
  auto flush = [&](bool block) {
    while (!pending.empty()) {
      std::future<std::string>& f = pending.front();
      if (!block && f.wait_for(std::chrono::seconds(0)) !=
                        std::future_status::ready)
        break;
      out << f.get() << '\n';
      pending.pop_front();
    }
    out.flush();
  };

  std::string line;
  while (!server.shutdownRequested() && std::getline(in, line)) {
    line += '\n';
    framer.feed(line.data(), line.size(), frames);
    submitFrames(server, frames, pending);
    flush(false);
  }
  framer.finish(frames);
  submitFrames(server, frames, pending);
  flush(true);
}

namespace {

void writeAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return;  // peer gone; responses are best-effort
    off += static_cast<size_t>(n);
  }
}

void serveConnection(AnalysisServer& server, int fd) {
  LineFramer framer(server.options().maxRequestBytes);
  std::vector<LineFramer::Frame> frames;
  std::deque<std::future<std::string>> pending;
  auto flush = [&](bool block) {
    while (!pending.empty()) {
      std::future<std::string>& f = pending.front();
      if (!block && f.wait_for(std::chrono::seconds(0)) !=
                        std::future_status::ready)
        break;
      writeAll(fd, f.get() + "\n");
      pending.pop_front();
    }
  };
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    framer.feed(buf, static_cast<size_t>(n), frames);
    submitFrames(server, frames, pending);
    flush(false);
  }
  framer.finish(frames);
  submitFrames(server, frames, pending);
  flush(true);
  ::close(fd);
}

}  // namespace

void serveUnixSocket(AnalysisServer& server, const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path))
    fail("unusable socket path (empty or longer than " +
         std::to_string(sizeof(addr.sun_path) - 1) + " bytes): '" + path +
         "'");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) fail("cannot create unix socket: " + std::string(strerror(errno)));
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string err = strerror(errno);
    ::close(fd);
    fail("cannot bind '" + path + "': " + err);
  }
  if (::listen(fd, 64) != 0) {
    const std::string err = strerror(errno);
    ::close(fd);
    fail("cannot listen on '" + path + "': " + err);
  }

  // Poll with a short timeout so a shutdown answered on any connection is
  // noticed promptly; live connections are drained before returning.
  std::vector<std::thread> connections;
  while (!server.shutdownRequested()) {
    pollfd pfd{fd, POLLIN, 0};
    const int r = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (r < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (r == 0) continue;
    const int cfd = ::accept(fd, nullptr, nullptr);
    if (cfd < 0) continue;
    connections.emplace_back(
        [&server, cfd] { serveConnection(server, cfd); });
  }
  ::close(fd);
  for (auto& t : connections) t.join();
  ::unlink(path.c_str());
}

}  // namespace formad::server
