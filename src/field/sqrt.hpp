// Square roots in the tower fields, both reduced to base-field roots.
//
//   sqrt(Fp2) — decompressing 64-byte G2 points. Complex method: since
//               u^2 = -1, a root costs about three Fp roots (p ≡ 3 mod 4
//               makes each one a single (p+1)/4 power) and an Fp inverse.
//   sqrt(Fp6) — decompressing 192-byte GT elements: a cyclotomic-subgroup
//               element g = a + b w satisfies g * conj(g) = 1, i.e.
//               a^2 - v b^2 = 1, so b is recoverable from a up to sign via
//               b = sqrt((a^2 - 1)/v). This is what lets the private proof
//               carry R in 192 bytes (1536 bits), matching the paper's
//               288-byte total. Norm method: the Fp2-norm of a decides
//               residuosity and its Fp2 root, with one 253-bit Fp6 power and
//               Frobenius maps, yields the root.
//
// Both return nullopt for non-squares, and only return x after checking
// x^2 == a. Generic Tonelli–Shanks over each field is the differential
// oracle in tests/support/tonelli_shanks.hpp.
#pragma once

#include <optional>

#include "field/fp6.hpp"

namespace dsaudit::ff {

std::optional<Fp2> sqrt(const Fp2& a);
std::optional<Fp6> sqrt(const Fp6& a);

}  // namespace dsaudit::ff
