#include "trace.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <thread>

namespace perfbench {

namespace {

// The innermost open span of the calling thread (-1: none). One tracer
// exists per process, so a single thread-local stack suffices.
thread_local std::vector<int> openStack;

int threadId() {
  return static_cast<int>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000);
}

}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double Tracer::nowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::open(const char* name, long long op) {
  Span s;
  s.name = name;
  s.parent = openStack.empty() ? -1 : openStack.back();
  s.op = op;
  s.tid = threadId();
  s.startUs = nowUs();
  int index = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    index = static_cast<int>(spans_.size());
    spans_.push_back(std::move(s));
  }
  openStack.push_back(index);
  return index;
}

void Tracer::close(int index) {
  const double end = nowUs();
  openStack.pop_back();
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<size_t>(index)].endUs = end;
}

Tracer::Scope::Scope(Tracer& t, const char* name, long long op) {
  if (!t.enabled()) return;
  tracer_ = &t;
  index_ = t.open(name, op);
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->close(index_);
}

void Tracer::addChildEndingNow(const char* name, long long op, double ms) {
  if (!enabled_) return;
  Span s;
  s.name = name;
  s.parent = openStack.empty() ? -1 : openStack.back();
  s.op = op;
  s.tid = threadId();
  s.endUs = nowUs();
  s.startUs = s.endUs - ms * 1000.0;
  std::lock_guard<std::mutex> lk(mu_);
  if (s.parent >= 0)
    s.startUs = std::max(s.startUs,
                         spans_[static_cast<size_t>(s.parent)].startUs);
  spans_.push_back(std::move(s));
}

std::map<std::string, double> Tracer::selfMsByName() const {
  std::lock_guard<std::mutex> lk(mu_);
  // Children of one parent run sequentially on the parent's thread (or,
  // for the daemon's service span, inside the parent's interval), so the
  // covered part is the sum of their durations.
  std::vector<double> childUs(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      childUs[static_cast<size_t>(s.parent)] += s.endUs - s.startUs;
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const double self = spans_[i].endUs - spans_[i].startUs - childUs[i];
    out[spans_[i].name] += std::max(0.0, self) / 1000.0;
  }
  return out;
}

std::map<std::string, double> Tracer::totalMsByName() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::map<std::string, double> out;
  for (const Span& s : spans_) out[s.name] += (s.endUs - s.startUs) / 1000.0;
  return out;
}

size_t Tracer::spanCount() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_.size();
}

void Tracer::writeChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ofstream out(path);
  out << "{\"traceEvents\":[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << s.tid << ",\"ts\":" << s.startUs << ",\"dur\":"
        << (s.endUs - s.startUs) << ",\"args\":{\"op\":" << s.op
        << ",\"parent\":" << s.parent << "}}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace perfbench
