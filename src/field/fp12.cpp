// GT multi-exponentiation (Fp12::multi_pow): the one GT exponentiation
// engine. The batched settlement folds every private round's R^rho
// commitment through it in one pass; single-base powers run it over a
// one-element span. Out of line because the window tables want real code,
// not header inlining.
//
// Also home to the compile-time checks of the tower constants (kTower in
// fp12.hpp), so they are evaluated once rather than in every includer.
#include "field/fp12.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace dsaudit::ff {

namespace {

/// p + k as an integer (no wrap: p < 2^254).
constexpr U256 p_plus(u64 k) {
  U256 out;
  bigint::add_with_carry(Fp::modulus(), U256{k}, out);
  return out;
}

constexpr Fp2 kGamma1 = kTower.gamma[1];

static_assert(bigint::mul_wide(detail::kPMinus1Over6, U256{6}).lo() ==
                  [] {
                    U256 pm1;
                    bigint::sub_with_borrow(Fp::modulus(), U256{1}, pm1);
                    return pm1;
                  }(),
              "6 * kPMinus1Over6 != p - 1");
// gamma_1^6 = xi^{p-1} = conj(xi)/xi, since xi^p = conj(xi).
static_assert(detail::fp2_pow(kGamma1, U256{6}) * xi() == xi().conjugate(),
              "gamma_1^6 != xi^(p-1)");
static_assert(detail::fp2_pow(kGamma1, p_plus(1)) == kTower.gamma_p2[1],
              "gamma_p2[1] != gamma_1^(p+1)");
// xi^{(p^3-1)/6} = gamma_1^{1 + p + p^2} = gamma_1^{p+2}.
static_assert(detail::fp2_pow(kGamma1, p_plus(2)) == kTower.gamma_p3[1],
              "gamma_p3[1] != gamma_1^(p+2)");
static_assert(
    [] {
      for (const Fp2& g : kTower.gamma_p2) {
        if (!g.c1.is_zero()) return false;
      }
      return true;
    }(),
    "gamma_p2 not in Fp");
// The twist constants. psi scales by gamma[2] = xi^{(p-1)/3} and gamma[3] =
// xi^{(p-1)/2}; psi^2 by gamma_p2[2] = xi^{(p^2-1)/3}, a primitive cube root
// of unity, and gamma_p2[3] = xi^{(p^2-1)/2} = -1, because xi is neither a
// cube nor a square in Fp2.
static_assert(detail::fp2_pow(kTower.gamma[2], U256{3}) * xi() == xi().conjugate() &&
                  detail::fp2_pow(kTower.gamma[3], U256{2}) * xi() ==
                      xi().conjugate(),
              "gamma[2]^3, gamma[3]^2 != xi^(p-1)");
static_assert(detail::fp2_pow(kTower.gamma_p2[2], U256{3}) == Fp2::one() &&
                  !kTower.gamma_p2[2].is_one() && kTower.gamma_p2[3] == -Fp2::one(),
              "psi^2 constants are not xi^((p^2-1)/3), xi^((p^2-1)/2)");

/// Deterministic window-width choice in squaring-equivalent units (one
/// generic Fp12 multiply ~ 2 cyclotomic squarings): per base, building the
/// table costs `tsize - 1` multiplies and the scan multiplies once per
/// (worst case, every) window position; the shared chain pays w squarings
/// per position regardless of n. Signed digits keep the table at powers
/// 1..2^{w-1} (negatives are free conjugates). Depends only on (n, bits), so
/// the chosen width — and therefore the exact multiplication sequence — is
/// identical at every thread count and on every platform.
unsigned pick_window(std::size_t n, unsigned bits) {
  unsigned best_w = 1;
  std::uint64_t best_cost = ~std::uint64_t{0};
  for (unsigned w = 1; w <= 7; ++w) {
    const std::uint64_t positions = (bits + w - 1) / w;
    const std::uint64_t table = (std::uint64_t{1} << (w - 1)) - 1;
    const std::uint64_t mults = n * (table + positions);
    const std::uint64_t cost = 2 * mults + positions * w;
    if (cost < best_cost) {
      best_cost = cost;
      best_w = w;
    }
  }
  return best_w;
}

}  // namespace

Fp12 Fp12::multi_pow(std::span<const Fp12> bases, std::span<const U256> exps) {
  if (bases.size() != exps.size()) {
    throw std::invalid_argument("Fp12::multi_pow: bases/exps size mismatch");
  }
  const std::size_t n = bases.size();
  if (n == 0) return one();
  unsigned bits = 0;
  for (const U256& e : exps) bits = std::max(bits, e.bit_length());
  if (bits == 0) return one();

  const unsigned w = pick_window(n, bits);
  const std::uint64_t half = std::uint64_t{1} << (w - 1);
  const std::size_t tsize = half;
  // table[i * tsize + (d - 1)] = bases[i]^d for d = 1..2^{w-1}; negative
  // digits read the same entry and conjugate.
  std::vector<Fp12> table(n * tsize);
  for (std::size_t i = 0; i < n; ++i) {
    Fp12* row = table.data() + i * tsize;
    row[0] = bases[i];
    if (tsize >= 2) row[1] = bases[i].cyclotomic_square();
    for (std::size_t d = 3; d <= tsize; ++d) row[d - 1] = row[d - 2] * bases[i];
  }

  // Signed window digits in [-(2^{w-1} - 1), 2^{w-1}] with carry, extracted
  // position-major (the carry can push one position past bits/w).
  const unsigned positions = (bits + w - 1) / w + 1;
  std::vector<std::int8_t> digits(std::size_t{positions} * n);
  unsigned used = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t carry = 0;
    for (unsigned pos = 0; pos < positions; ++pos) {
      std::uint64_t raw = exps[i].extract_window(pos * w, w) + carry;
      std::int8_t d;
      if (raw > half) {
        d = static_cast<std::int8_t>(static_cast<int>(raw) - (1 << w));
        carry = 1;
      } else {
        d = static_cast<std::int8_t>(raw);
        carry = 0;
      }
      digits[std::size_t{pos} * n + i] = d;
      if (d != 0 && pos + 1 > used) used = pos + 1;
    }
  }

  Fp12 acc = one();
  for (unsigned pos = used; pos-- > 0;) {
    if (pos + 1 != used) {
      for (unsigned s = 0; s < w; ++s) acc = acc.cyclotomic_square();
    }
    const std::int8_t* dp = digits.data() + std::size_t{pos} * n;
    for (std::size_t i = 0; i < n; ++i) {
      const int d = dp[i];
      if (d > 0) {
        acc *= table[i * tsize + d - 1];
      } else if (d < 0) {
        acc *= table[i * tsize + (-d) - 1].conjugate();
      }
    }
  }
  return acc;
}

}  // namespace dsaudit::ff
