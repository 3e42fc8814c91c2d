#include "smt/rational.h"

#include "support/diagnostics.h"

namespace formad::smt {

namespace {

__int128 gcd128(__int128 a, __int128 b) {
  if (a < 0) a = -a;
  if (b < 0) b = -b;
  while (b != 0) {
    __int128 t = a % b;
    a = b;
    b = t;
  }
  return a;
}

long long narrow(__int128 v) {
  if (v > INT64_MAX || v < INT64_MIN)
    throw ArithmeticOverflow(
        "arithmetic overflow: a coefficient exceeds 64 bits");
  return static_cast<long long>(v);
}

}  // namespace

long long gcd64(long long a, long long b) {
  return narrow(gcd128(a, b));
}

long long lcm64(long long a, long long b) {
  if (a == 0 || b == 0) return 0;
  __int128 g = gcd128(a, b);
  return narrow((static_cast<__int128>(a) / g) * b < 0
                    ? -((static_cast<__int128>(a) / g) * b)
                    : (static_cast<__int128>(a) / g) * b);
}

Rational Rational::normalized(__int128 num, __int128 den) {
  FORMAD_ASSERT(den != 0, "rational with zero denominator");
  if (den < 0) {
    num = -num;
    den = -den;
  }
  __int128 g = gcd128(num, den);
  if (g > 1) {
    num /= g;
    den /= g;
  }
  Rational r;
  r.num_ = narrow(num);
  r.den_ = narrow(den);
  if (r.num_ == 0) r.den_ = 1;
  return r;
}

Rational::Rational(long long num, long long den) {
  *this = normalized(num, den);
}

Rational Rational::operator-() const { return normalized(-static_cast<__int128>(num_), den_); }

Rational Rational::operator+(const Rational& o) const {
  return normalized(static_cast<__int128>(num_) * o.den_ +
                        static_cast<__int128>(o.num_) * den_,
                    static_cast<__int128>(den_) * o.den_);
}

Rational Rational::operator-(const Rational& o) const { return *this + (-o); }

Rational Rational::operator*(const Rational& o) const {
  return normalized(static_cast<__int128>(num_) * o.num_,
                    static_cast<__int128>(den_) * o.den_);
}

Rational Rational::operator/(const Rational& o) const {
  FORMAD_ASSERT(!o.isZero(), "rational division by zero");
  return normalized(static_cast<__int128>(num_) * o.den_,
                    static_cast<__int128>(den_) * o.num_);
}

Rational Rational::inverse() const {
  FORMAD_ASSERT(!isZero(), "inverse of zero");
  return normalized(den_, num_);
}

bool Rational::operator<(const Rational& o) const {
  return static_cast<__int128>(num_) * o.den_ <
         static_cast<__int128>(o.num_) * den_;
}

std::string Rational::str() const {
  if (den_ == 1) return std::to_string(num_);
  return std::to_string(num_) + "/" + std::to_string(den_);
}

}  // namespace formad::smt
