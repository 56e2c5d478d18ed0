// Square roots in Fp2, for decompressing 64-byte G2 points. Complex method:
// since u^2 = -1, a root costs about three Fp roots (p ≡ 3 mod 4 makes each
// one a single (p+1)/4 power) and an Fp inverse.
//
// Returns nullopt for non-squares, and only returns x after checking
// x^2 == a. Generic Tonelli–Shanks is the differential oracle in
// tests/support/tonelli_shanks.hpp.
#pragma once

#include <optional>

#include "field/fp2.hpp"

namespace dsaudit::ff {

std::optional<Fp2> sqrt(const Fp2& a);

}  // namespace dsaudit::ff
