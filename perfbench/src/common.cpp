#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "server/json.h"
#include "support/percentile.h"

namespace perfbench {

double processCpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1000.0 +
           static_cast<double>(tv.tv_usec) / 1000.0;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string resultLine(const Outcome& out) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    os << (i > 0 ? ", " : "") << "\"" << m.name << "\": {\"value\": "
       << (std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \""
       << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

namespace {

bool identChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Replaces every whole-word occurrence of `from` by `to`.
std::string replaceWord(const std::string& text, const std::string& from,
                        const std::string& to) {
  std::string out;
  out.reserve(text.size() + 64);
  size_t i = 0;
  while (i < text.size()) {
    if (identChar(text[i])) {
      size_t j = i;
      while (j < text.size() && identChar(text[j])) ++j;
      const std::string word = text.substr(i, j - i);
      out += word == from ? to : word;
      i = j;
    } else {
      out += text[i++];
    }
  }
  return out;
}

}  // namespace

Renamer::Renamed Renamer::fresh(const std::string& source) {
  Renamed r;
  r.source = source;
  const std::string marker = "parallel for ";
  std::vector<std::string> counters;
  for (size_t at = source.find(marker); at != std::string::npos;
       at = source.find(marker, at + 1)) {
    size_t b = at + marker.size();
    size_t e = b;
    while (e < source.size() && identChar(source[e])) ++e;
    const std::string name = source.substr(b, e - b);
    if (std::find(counters.begin(), counters.end(), name) == counters.end())
      counters.push_back(name);
  }
  for (const std::string& c : counters) {
    std::string name;
    do {
      char suffix[16];
      std::snprintf(suffix, sizeof suffix, "_q%06llx",
                    static_cast<unsigned long long>(rng_() & 0xffffffULL));
      name = c + suffix;
    } while (!used_.insert(name).second);
    r.source = replaceWord(r.source, c, name);
    r.names.emplace_back(name, c);
  }
  return r;
}

std::string undoRename(std::string text, const Renamer::Renamed& r) {
  for (const auto& [fresh, orig] : r.names) {
    for (size_t at = text.find(fresh); at != std::string::npos;
         at = text.find(fresh, at + orig.size()))
      text.replace(at, fresh.size(), orig);
  }
  return text;
}

double LatencyBook::balanced(double pct) const {
  if (byClass_.empty()) return 0;
  double logSum = 0;
  for (const auto& [cls, xs] : byClass_)
    logSum += std::log(std::max(1e-9, formad::support::percentileOf(xs, pct)));
  return std::exp(logSum / static_cast<double>(byClass_.size()));
}

std::vector<int> blockBounds(int rounds) {
  const int n = std::max(1, rounds / kMinBlockRounds);
  std::vector<int> bounds;
  for (int b = 0; b <= n; ++b)
    bounds.push_back(static_cast<int>(static_cast<long long>(rounds) * b / n));
  return bounds;
}

namespace {

template <typename F>
double medianOver(const std::vector<Block>& blocks, F f) {
  std::vector<double> xs;
  for (const Block& b : blocks) xs.push_back(f(b));
  return formad::support::percentileOf(xs, 50);
}

}  // namespace

LatencyBook mergedBook(const std::vector<Block>& blocks) {
  LatencyBook all;
  for (const Block& b : blocks)
    for (const auto& [cls, xs] : b.book.classes())
      for (double x : xs) all.add(cls, x);
  return all;
}

double blockedBalanced(const std::vector<Block>& blocks, double pct) {
  return medianOver(blocks,
                    [&](const Block& b) { return b.book.balanced(pct); });
}

void addEndToEnd(Outcome& out, const std::vector<double>& setupSeconds,
                 const std::vector<Block>& blocks) {
  const LatencyBook all = mergedBook(blocks);
  for (size_t i = 0; i < blocks.size(); ++i)
    std::cout << "block " << i << " ops " << blocks[i].w.ops << " wall_ms "
              << blocks[i].w.wallMs << " p50_ms "
              << blocks[i].book.balanced(50) << " p90_ms "
              << blocks[i].book.balanced(90) << "\n";
  for (const auto& [cls, xs] : all.classes())
    std::cout << "class " << cls << " n " << xs.size() << " p50_ms "
              << formad::support::percentileOf(xs, 50) << " p90_ms "
              << formad::support::percentileOf(xs, 90) << "\n";
  auto ops = [](const Window& w) {
    return static_cast<double>(std::max<long long>(1, w.ops));
  };
  const double opsPerS = medianOver(
      blocks, [&](const Block& b) { return ops(b.w) / (b.w.wallMs / 1000.0); });
  const double cpuPerOp = medianOver(
      blocks, [&](const Block& b) { return b.w.cpuMs / ops(b.w); });
  out.metrics.push_back(
      {"setup_s", formad::support::percentileOf(setupSeconds, 50), "s"});
  out.metrics.push_back({"ops_per_s", opsPerS, "1/s"});
  out.metrics.push_back({"latency_p50_ms", blockedBalanced(blocks, 50), "ms"});
  out.metrics.push_back({"latency_p90_ms", blockedBalanced(blocks, 90), "ms"});
  out.metrics.push_back({"cpu_ms_per_op", cpuPerOp, "ms"});
  out.metrics.push_back({"peak_rss_mb", peakRssMb(), "MB"});
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void writeFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

Golden::Golden(std::string dir, bool record)
    : dir_(std::move(dir)), record_(record) {
  using formad::server::JsonValue;
  const JsonValue root =
      formad::server::parseJson(readFile(dir_ + "/table1.json"));
  for (const auto& [kernel, v] : root.find("analyze")->members()) {
    Verdict verdict;
    verdict.safe = v.find("safe")->asBool();
    for (const JsonValue& r : v.find("rejected")->elements())
      verdict.rejected.push_back(r.asString());
    analyze_[kernel] = verdict;
  }
  for (const auto& [kernel, v] : root.find("racecheck")->members())
    racecheck_[kernel] = v.asString();
}

const Golden::Verdict& Golden::analyzeVerdict(const std::string& k) const {
  const auto it = analyze_.find(k);
  if (it == analyze_.end()) throw std::runtime_error("no golden for " + k);
  return it->second;
}

const std::string& Golden::racecheckVerdict(const std::string& k) const {
  const auto it = racecheck_.find(k);
  if (it == racecheck_.end()) throw std::runtime_error("no golden for " + k);
  return it->second;
}

bool Golden::matches(const std::string& name, const std::string& text) const {
  const std::string path = dir_ + "/reports/" + name + ".txt";
  if (record_) {
    writeFile(path, text);
    fixtures_[name] = text;
    return true;
  }
  auto it = fixtures_.find(name);
  if (it == fixtures_.end()) it = fixtures_.emplace(name, readFile(path)).first;
  if (it->second == text) return true;
  std::cerr << "output mismatch against fixture " << path << ":\n"
            << text.substr(0, 2000) << "\n";
  return false;
}

std::vector<int> shuffledRounds(int classes, int rounds,
                                std::mt19937_64& rng) {
  std::vector<int> order;
  std::vector<int> round(static_cast<size_t>(classes));
  for (int r = 0; r < rounds; ++r) {
    for (int c = 0; c < classes; ++c) round[static_cast<size_t>(c)] = c;
    std::shuffle(round.begin(), round.end(), rng);
    order.insert(order.end(), round.begin(), round.end());
  }
  return order;
}

int opsPerClass(double ratePerSecond, const Args& args) {
  const int n = std::max(
      100, static_cast<int>(std::lround(ratePerSecond * args.seconds)));
  return args.trace ? n / 2 : n;
}

}  // namespace perfbench
