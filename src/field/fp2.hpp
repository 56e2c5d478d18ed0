// Quadratic extension Fp2 = Fp[u]/(u^2 + 1). Valid because p ≡ 3 (mod 4),
// so -1 is a quadratic non-residue mod p.
#pragma once

#include "field/fp.hpp"

namespace dsaudit::ff {

class Fp2 {
 public:
  Fp c0, c1;  // c0 + c1 * u

  Fp2() = default;
  constexpr Fp2(const Fp& a, const Fp& b) : c0(a), c1(b) {}

  static constexpr Fp2 zero() { return {}; }
  static constexpr Fp2 one() { return {Fp::one(), Fp::zero()}; }
  static constexpr Fp2 from_u64(u64 a, u64 b) { return {Fp::from_u64(a), Fp::from_u64(b)}; }
  static Fp2 random(primitives::SecureRng& rng) {
    return {Fp::random(rng), Fp::random(rng)};
  }

  constexpr bool is_zero() const { return c0.is_zero() && c1.is_zero(); }
  constexpr bool is_one() const { return c0.is_one() && c1.is_zero(); }

  friend constexpr Fp2 operator+(const Fp2& a, const Fp2& b) {
    return {a.c0 + b.c0, a.c1 + b.c1};
  }
  friend constexpr Fp2 operator-(const Fp2& a, const Fp2& b) {
    return {a.c0 - b.c0, a.c1 - b.c1};
  }
  constexpr Fp2 operator-() const { return {-c0, -c1}; }

  friend constexpr Fp2 operator*(const Fp2& a, const Fp2& b) {
    // Karatsuba: (a0+a1u)(b0+b1u) = a0b0 - a1b1 + ((a0+a1)(b0+b1)-a0b0-a1b1)u
    Fp v0 = a.c0 * b.c0;
    Fp v1 = a.c1 * b.c1;
    Fp mid = (a.c0 + a.c1) * (b.c0 + b.c1);
    return {v0 - v1, mid - v0 - v1};
  }
  constexpr Fp2& operator+=(const Fp2& o) { return *this = *this + o; }
  constexpr Fp2& operator-=(const Fp2& o) { return *this = *this - o; }
  constexpr Fp2& operator*=(const Fp2& o) { return *this = *this * o; }

  constexpr Fp2 mul_fp(const Fp& s) const { return {c0 * s, c1 * s}; }

  constexpr Fp2 dbl() const { return {c0 + c0, c1 + c1}; }
  constexpr Fp2 triple() const { return *this + *this + *this; }

  constexpr Fp2 square() const {
    // (a+bu)^2 = (a+b)(a-b) + 2ab u
    Fp ab = c0 * c1;
    return {(c0 + c1) * (c0 - c1), ab + ab};
  }

  /// Complex conjugate — also the p-power Frobenius on Fp2.
  constexpr Fp2 conjugate() const { return {c0, -c1}; }
  constexpr Fp2 frobenius() const { return conjugate(); }

  Fp2 inverse() const {
    // 1/(a+bu) = (a-bu)/(a^2+b^2)
    Fp norm = c0.square() + c1.square();
    Fp inv = norm.inverse();
    return {c0 * inv, -(c1 * inv)};
  }

  /// Multiply by the sextic non-residue xi = 9 + u (tower constant).
  constexpr Fp2 mul_by_xi() const {
    // (9+u)(a+bu) = (9a - b) + (a + 9b)u
    Fp nine_a = times9(c0);
    Fp nine_b = times9(c1);
    return {nine_a - c1, c0 + nine_b};
  }

  friend constexpr bool operator==(const Fp2& a, const Fp2& b) = default;

  /// Canonical 64-byte big-endian encoding (c0 || c1).
  std::array<std::uint8_t, 64> to_bytes() const {
    std::array<std::uint8_t, 64> out;
    c0.to_be_bytes(std::span<std::uint8_t, 32>(out.data(), 32));
    c1.to_be_bytes(std::span<std::uint8_t, 32>(out.data() + 32, 32));
    return out;
  }

 private:
  static constexpr Fp times9(const Fp& x) {
    Fp x2 = x + x;
    Fp x4 = x2 + x2;
    Fp x8 = x4 + x4;
    return x8 + x;
  }
};

/// The sextic non-residue xi = 9 + u defining Fp6 = Fp2[v]/(v^3 - xi).
inline constexpr Fp2 xi() { return Fp2::from_u64(9, 1); }

}  // namespace dsaudit::ff
