// Exact rational arithmetic for the SMT core.
//
// Coefficients stay tiny in FormAD's queries (array strides and offsets),
// but Gaussian elimination can blow values up, so all intermediates use
// 128-bit integers and overflow is checked, never silently wrapped: a
// result outside 64 bits throws ArithmeticOverflow.
#pragma once

#include <cstdint>
#include <string>

#include "support/diagnostics.h"

namespace formad::smt {

/// Thrown when an exact value leaves the 64-bit range. The solver turns it
/// into Unknown (never Unsat, so the guard stays); every other caller
/// reports it like any other formad::Error.
class ArithmeticOverflow : public Error {
 public:
  using Error::Error;
};

class Rational {
 public:
  constexpr Rational() = default;
  Rational(long long value) : num_(value), den_(1) {}  // NOLINT(google-explicit-constructor)
  Rational(long long num, long long den);

  [[nodiscard]] long long num() const { return num_; }
  [[nodiscard]] long long den() const { return den_; }

  [[nodiscard]] bool isZero() const { return num_ == 0; }
  [[nodiscard]] bool isInteger() const { return den_ == 1; }
  [[nodiscard]] int sign() const { return num_ > 0 ? 1 : (num_ < 0 ? -1 : 0); }

  [[nodiscard]] Rational operator-() const;
  [[nodiscard]] Rational operator+(const Rational& o) const;
  [[nodiscard]] Rational operator-(const Rational& o) const;
  [[nodiscard]] Rational operator*(const Rational& o) const;
  [[nodiscard]] Rational operator/(const Rational& o) const;
  Rational& operator+=(const Rational& o) { return *this = *this + o; }
  Rational& operator-=(const Rational& o) { return *this = *this - o; }
  Rational& operator*=(const Rational& o) { return *this = *this * o; }
  Rational& operator/=(const Rational& o) { return *this = *this / o; }

  [[nodiscard]] Rational inverse() const;

  bool operator==(const Rational& o) const {
    return num_ == o.num_ && den_ == o.den_;
  }
  bool operator!=(const Rational& o) const { return !(*this == o); }
  bool operator<(const Rational& o) const;
  bool operator<=(const Rational& o) const { return *this < o || *this == o; }
  bool operator>(const Rational& o) const { return o < *this; }
  bool operator>=(const Rational& o) const { return o <= *this; }

  [[nodiscard]] std::string str() const;

 private:
  static Rational normalized(__int128 num, __int128 den);

  long long num_ = 0;
  long long den_ = 1;
};

/// gcd of two non-negative 64-bit values.
[[nodiscard]] long long gcd64(long long a, long long b);
/// lcm with overflow check.
[[nodiscard]] long long lcm64(long long a, long long b);

}  // namespace formad::smt
