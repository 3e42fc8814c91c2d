// Span recorder of the traced run. Spans are recorded only here, around
// the benchmark's own calls into each library layer; nothing inside the
// library is instrumented. Disabled, a span costs one branch.
#pragma once

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  struct Span {
    std::string name;
    double startUs = 0;
    double endUs = 0;
    int parent = -1;  // index into spans(), -1 for a root
    long long op = -1;
    int tid = 0;
  };

  /// RAII span: opens on construction (child of the thread's innermost
  /// open span), closes on destruction.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, long long op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;  // null when tracing is off
    int index_ = -1;
  };

  /// Records a closed span ending now that lasted `ms`, as a child of the
  /// thread's innermost open span (the daemon's service time, which runs
  /// on a session thread the benchmark cannot wrap).
  void addChildEndingNow(const char* name, long long op, double ms);

  /// Total self time (duration minus the time covered by children) per
  /// span name, in ms.
  [[nodiscard]] std::map<std::string, double> selfMsByName() const;
  /// Total duration per span name, in ms.
  [[nodiscard]] std::map<std::string, double> totalMsByName() const;
  [[nodiscard]] size_t spanCount() const;

  /// Writes every span as Chrome-trace JSON ("X" events).
  void writeChromeTrace(const std::string& path) const;

 private:
  [[nodiscard]] double nowUs() const;
  int open(const char* name, long long op);
  void close(int index);

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

}  // namespace perfbench
