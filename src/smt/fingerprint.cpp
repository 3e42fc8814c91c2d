#include "smt/fingerprint.h"

#include <algorithm>
#include <cstdio>

#include "smt/solver.h"

namespace formad::smt {

const std::string& Fingerprinter::atomKey(AtomId id) {
  auto idx = static_cast<size_t>(id);
  if (idx >= memo_.size()) memo_.resize(idx + 1);
  std::string& slot = memo_[idx];
  if (!slot.empty()) return slot;
  const Atom& a = atoms_->atom(id);
  std::string key;
  if (a.kind == AtomKind::Var) {
    key = a.name;
    key += '#';
    key += std::to_string(a.instance);
    if (a.primed) key += '\'';
  } else {
    key = a.fn;
    key += '(';
    for (size_t i = 0; i < a.args.size(); ++i) {
      if (i) key += ',';
      // exprKey may grow memo_ and invalidate `slot`; build into `key`
      // first and re-resolve the slot below.
      key += exprKey(a.args[i]);
    }
    key += ')';
  }
  memo_[idx] = std::move(key);
  return memo_[idx];
}

std::string Fingerprinter::exprKey(const LinExpr& e) {
  // Terms sorted by atom CONTENT key: interning order (AtomId) is a
  // per-process accident and must not leak into the fingerprint.
  // Derive every key first: atomKey may grow memo_, which would move the
  // strings a pointer captured below refers to. Once derived, the second
  // pass hits only memoized slots and memo_ stays put.
  for (const auto& [id, c] : e.coeffs()) (void)atomKey(id);
  std::vector<std::pair<const std::string*, const Rational*>> terms;
  terms.reserve(e.coeffs().size());
  for (const auto& [id, c] : e.coeffs()) terms.emplace_back(&atomKey(id), &c);
  std::sort(terms.begin(), terms.end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });
  std::string key;
  for (const auto& [ak, c] : terms) {
    key += c->str();
    key += '*';
    key += *ak;
    key += '+';
  }
  key += e.constant().str();
  return key;
}

std::string Fingerprinter::constraintKey(const Constraint& c) {
  const char* tag = c.rel == Rel::Eq ? "=" : c.rel == Rel::Ne ? "!" : "<";
  return tag + exprKey(c.expr);
}

std::uint64_t fnv1a64(std::string_view s, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string ContentDigest::hex() const {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(32);
  for (std::uint64_t h : {lo, hi})
    for (int shift = 60; shift >= 0; shift -= 4)
      out += digits[(h >> shift) & 0xF];
  return out;
}

bool canonicalLess(const InternedConstraint* a, const InternedConstraint* b) {
  if (a->digest != b->digest) return a->digest < b->digest;
  return a->key < b->key;
}

const InternedConstraint* ConstraintInterner::intern(std::string key) {
  InternedConstraint probe{std::move(key), {}};
  Shard& shard = shards_[(KeyHash{}(probe) >> 8) % kShards];
  std::lock_guard<std::mutex> lk(shard.mu);
  auto it = shard.set.find(probe);
  if (it == shard.set.end()) {
    probe.digest = constraintDigest(probe.key);
    it = shard.set.insert(std::move(probe)).first;
  }
  return &*it;
}

namespace {

/// Seed of the second digest half; the first half uses fnv1a64's default
/// seed (the FNV offset basis).
constexpr std::uint64_t kDigestSeed2 = 0x9e3779b97f4a7c15ULL;

/// splitmix64's finalizer: a cheap full-avalanche 64-bit mix.
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Folds one word into a digest lane; not commutative, so folding a
/// sequence keeps its order.
std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return mix64((h ^ v) + 0x9e3779b97f4a7c15ULL);
}

}  // namespace

ContentDigest constraintDigest(std::string_view key) {
  // FNV-1a's last step is a multiplication, which is linear under the
  // wrapping sums a conjunction digest takes: keys differing only in their
  // final byte could cancel in a sum. The finalizer removes that structure.
  return {mix64(fnv1a64(key)), mix64(fnv1a64(key, kDigestSeed2))};
}

ContentDigest keyDigest(KeyKind kind, std::uint64_t salt,
                        const ContentDigest& conjunctionSum, size_t depth,
                        const std::vector<ContentDigest>& probes) {
  const auto tag = static_cast<std::uint64_t>(static_cast<unsigned char>(kind));
  // Two lanes with distinct seeds; each folds both sum halves, so neither
  // half of the result depends on only half of the content.
  std::uint64_t lo = fold(0xcbf29ce484222325ULL, tag);
  std::uint64_t hi = fold(kDigestSeed2, tag);
  for (std::uint64_t v : {salt, static_cast<std::uint64_t>(depth)}) {
    lo = fold(lo, v);
    hi = fold(hi, v);
  }
  lo = fold(fold(lo, conjunctionSum.lo), conjunctionSum.hi);
  hi = fold(fold(hi, conjunctionSum.hi), conjunctionSum.lo);
  for (const ContentDigest& p : probes) {
    lo = fold(fold(lo, p.lo), p.hi);
    hi = fold(fold(hi, p.hi), p.lo);
  }
  return {lo, hi};
}

ContentKey ContentKey::make(KeyKind kind, std::uint64_t salt,
                            std::vector<const InternedConstraint*> conjunction,
                            std::vector<const InternedConstraint*> probes) {
  ContentKey k;
  k.kind = kind;
  k.salt = salt;
  std::sort(conjunction.begin(), conjunction.end(), canonicalLess);
  ContentDigest sum;
  for (const InternedConstraint* c : conjunction) sum += c->digest;
  std::vector<ContentDigest> probeDigests;
  probeDigests.reserve(probes.size());
  for (const InternedConstraint* p : probes) probeDigests.push_back(p->digest);
  k.digest = keyDigest(kind, salt, sum, conjunction.size(), probeDigests);
  k.conjunction = std::move(conjunction);
  k.probes = std::move(probes);
  return k;
}

namespace {

/// "<kind>|<salt as 16 hex>|": the fixed-size head of a canonical key.
constexpr size_t kCanonicalHead = 19;

void canonicalHead(char (&out)[kCanonicalHead + 1], KeyKind kind,
                   std::uint64_t salt) {
  std::snprintf(out, sizeof(out), "%c|%016llx|", static_cast<char>(kind),
                static_cast<unsigned long long>(salt));
}

}  // namespace

size_t ContentKey::canonicalSize() const {
  size_t n = kCanonicalHead;
  for (const InternedConstraint* c : conjunction) n += c->key.size() + 1;
  for (const InternedConstraint* p : probes) n += p->key.size() + 1;
  return n;
}

std::string ContentKey::canonical() const {
  char head[kCanonicalHead + 1];
  canonicalHead(head, kind, salt);
  std::string out;
  out.reserve(canonicalSize());
  out += head;
  for (const InternedConstraint* c : conjunction) {
    out += c->key;
    out += ';';
  }
  for (const InternedConstraint* p : probes) {
    out += '|';
    out += p->key;
  }
  return out;
}

bool ContentKey::matchesCanonical(std::string_view s) const {
  // canonical(), piece by piece, without rendering it.
  auto take = [&s](std::string_view piece) {
    if (s.substr(0, piece.size()) != piece) return false;
    s.remove_prefix(piece.size());
    return true;
  };
  char head[kCanonicalHead + 1];
  canonicalHead(head, kind, salt);
  if (!take(head)) return false;
  for (const InternedConstraint* c : conjunction)
    if (!take(c->key) || !take(";")) return false;
  for (const InternedConstraint* p : probes)
    if (!take("|") || !take(p->key)) return false;
  return s.empty();
}

}  // namespace formad::smt
