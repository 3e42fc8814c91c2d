// Content keys for every verdict-cache layer.
//
// Cached verdicts must be addressed by what a conjunction SAYS, never by
// how one process happened to intern its atoms. Two levels do that:
//
//   - The Fingerprinter renders one constraint into a canonical string
//     that is a pure function of its content:
//
//       Var  n (instance k, primed)   ->  n#k'
//       UF   f(e1, ..., ek)           ->  f(<exprKey(e1)>,...)   (recursive)
//
//     and a LinExpr as its terms sorted by atom key, so two runs that build
//     the same logical constraint produce byte-identical keys.
//   - A ContentKey names a whole conjunction (a solver check) or a whole
//     scheduler task. Its 128-bit digest is the wrapping SUM of the
//     per-constraint digests (a conjunction is a multiset, and sums
//     commute) folded with the depth, kind tag, absint salt and, for tasks,
//     the ordered probe digests. The sum is maintained in O(1) per solver
//     add/pop and per scheduler prefix-tree node, so no layer ever hashes a
//     multi-KB string again.
//
// Digests only LOCATE entries. Every in-memory entry also carries the key's
// exact identity — interned constraint handles in canonical order — and a
// digest hit is served only when the identities are equal, which costs
// O(constraints). On disk the identity is rendered as the canonical string
// (ContentKey::canonical) and verified byte-for-byte on read. Either way a
// digest collision costs a miss, never a wrong verdict.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "smt/term.h"

namespace formad::smt {

struct Constraint;

/// Memoizing canonical-key deriver over one AtomTable. Not thread-safe;
/// give each solver/planner its own (they share the table read-only).
class Fingerprinter {
 public:
  explicit Fingerprinter(const AtomTable& atoms) : atoms_(&atoms) {}

  /// Canonical content key of one atom (memoized; atoms are immutable once
  /// interned, so the memo never invalidates).
  [[nodiscard]] const std::string& atomKey(AtomId id);

  /// Canonical content key of a linear expression: terms sorted by atom
  /// key, then the constant — independent of atom interning order.
  [[nodiscard]] std::string exprKey(const LinExpr& e);

  /// Canonical content key of one constraint: relation tag + exprKey.
  [[nodiscard]] std::string constraintKey(const Constraint& c);

 private:
  const AtomTable* atoms_;
  std::vector<std::string> memo_;  // indexed by AtomId; empty = underived
};

/// 64-bit FNV-1a over `s`, folding `seed` in first (two seeds give the
/// independent halves of a constraint digest).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view s,
                                    std::uint64_t seed = 0xcbf29ce484222325ULL);

/// A 128-bit content digest. Constraint digests add and subtract (wrapping)
/// so a conjunction's digest sum is order-independent.
struct ContentDigest {
  std::uint64_t lo = 0, hi = 0;

  ContentDigest& operator+=(const ContentDigest& o) {
    lo += o.lo;
    hi += o.hi;
    return *this;
  }
  ContentDigest& operator-=(const ContentDigest& o) {
    lo -= o.lo;
    hi -= o.hi;
    return *this;
  }
  friend bool operator==(const ContentDigest&, const ContentDigest&) = default;
  friend auto operator<=>(const ContentDigest&, const ContentDigest&) = default;

  /// 32 lowercase hex chars (lo half first): the on-disk record name.
  [[nodiscard]] std::string hex() const;
};

struct ContentDigestHash {
  size_t operator()(const ContentDigest& d) const noexcept {
    return static_cast<size_t>(d.lo);
  }
};

/// Digest of one canonical constraint key: two seeded FNV-1a halves over
/// the (short) key string, each finalized to full avalanche so digests sum
/// without structure. Computed once per distinct constraint.
[[nodiscard]] ContentDigest constraintDigest(std::string_view key);

/// One interned canonical constraint key. The interner hands out one
/// object per distinct key, so within one interner the address IS the
/// exact identity of the constraint.
struct InternedConstraint {
  std::string key;
  ContentDigest digest;
};

/// Canonical order of interned constraints: by digest, then by key bytes
/// (the tie-break only fires on a 128-bit digest collision). A pure
/// function of content, so it orders disk records identically in every
/// process.
[[nodiscard]] bool canonicalLess(const InternedConstraint* a,
                                 const InternedConstraint* b);

/// Thread-safe constraint-key interner (sharded). Owned by the verdict
/// store (PersistentVerdictStore); every key compared against another must
/// come from the same interner. Entries live as long
/// as the interner and never move.
class ConstraintInterner {
 public:
  [[nodiscard]] const InternedConstraint* intern(std::string key);

 private:
  struct KeyHash {
    size_t operator()(const InternedConstraint& c) const noexcept {
      return std::hash<std::string>{}(c.key);
    }
  };
  struct KeyEq {
    bool operator()(const InternedConstraint& a,
                    const InternedConstraint& b) const noexcept {
      return a.key == b.key;
    }
  };
  static constexpr size_t kShards = 16;
  struct Shard {
    std::mutex mu;
    std::unordered_set<InternedConstraint, KeyHash, KeyEq> set;
  };
  std::array<Shard, kShards> shards_;
};

/// What a ContentKey names. The tag is part of both the digest and the
/// identity, so a solver check and a task over the same base never alias.
enum class KeyKind : char {
  Check = 'c',        // one solver check: the whole assertion stack
  Consistency = 'C',  // scheduler task: is the base itself Unsat?
  Pair = 'P',         // scheduler task: ordered disjointness probes
};

/// The digest of a key from its parts: the conjunction's digest sum and
/// depth, the kind, the absint salt (0 = off), and the ordered probe
/// digests (tasks only). O(probes).
[[nodiscard]] ContentDigest keyDigest(KeyKind kind, std::uint64_t salt,
                                      const ContentDigest& conjunctionSum,
                                      size_t depth,
                                      const std::vector<ContentDigest>& probes);

/// The one key of every verdict-cache layer: the 128-bit digest plus the
/// exact identity it was derived from. Two keys from the same interner are
/// equal iff they name the same content.
struct ContentKey {
  ContentDigest digest;
  KeyKind kind = KeyKind::Check;
  std::uint64_t salt = 0;
  /// The conjunction as a multiset, in canonical order.
  std::vector<const InternedConstraint*> conjunction;
  /// Task probes in evaluation order (the probe walk stops at the first
  /// Unsat, so order is semantic). Empty for checks and Consistency.
  std::vector<const InternedConstraint*> probes;

  /// Builds a key and its digest. `conjunction` need not be sorted.
  [[nodiscard]] static ContentKey make(
      KeyKind kind, std::uint64_t salt,
      std::vector<const InternedConstraint*> conjunction,
      std::vector<const InternedConstraint*> probes = {});

  /// The canonical string form, rendered only for disk records: kind,
  /// salt, the conjunction's keys in canonical order, then the probe keys
  /// in order. A pure function of content.
  [[nodiscard]] std::string canonical() const;
  /// canonical().size(), in O(constraints).
  [[nodiscard]] size_t canonicalSize() const;
  /// canonical() == s, without rendering canonical().
  [[nodiscard]] bool matchesCanonical(std::string_view s) const;

  friend bool operator==(const ContentKey&, const ContentKey&) = default;
};

/// Map from ContentKey to V for the in-memory cache layers: hashed on the
/// digest, served only on an exact identity match. Keys whose digests
/// collide coexist as separate entries. Not thread-safe (callers shard and
/// lock).
template <class V>
class ContentMap {
 public:
  [[nodiscard]] V* find(const ContentKey& k) {
    auto [it, end] = map_.equal_range(k.digest);
    for (; it != end; ++it)
      if (it->second.first == k) return &it->second.second;
    return nullptr;
  }
  /// Inserts (k, v) unless `k` is already present; returns the entry and
  /// whether it was inserted.
  std::pair<V*, bool> emplace(ContentKey k, V v) {
    if (V* cur = find(k)) return {cur, false};
    const ContentDigest d = k.digest;
    auto it =
        map_.emplace(d, std::pair<ContentKey, V>(std::move(k), std::move(v)));
    return {&it->second.second, true};
  }
  /// Erases `k`'s entry if present.
  bool erase(const ContentKey& k) {
    auto [it, end] = map_.equal_range(k.digest);
    for (; it != end; ++it)
      if (it->second.first == k) {
        map_.erase(it);
        return true;
      }
    return false;
  }
  [[nodiscard]] size_t size() const { return map_.size(); }

 private:
  std::unordered_multimap<ContentDigest, std::pair<ContentKey, V>,
                          ContentDigestHash>
      map_;
};

}  // namespace formad::smt
