// G2: the order-r subgroup of the sextic twist E'(Fp2) : y^2 = x^3 + 3/xi,
// xi = 9 + u, with the standard EIP-197 generator. Unlike G1, the twist has a
// large cofactor, so membership requires an explicit subgroup check.
#pragma once

#include <cstdint>
#include <optional>

#include "curve/fixed_base.hpp"
#include "curve/point.hpp"
#include "field/fp2.hpp"

namespace dsaudit::curve {

using ff::Fp2;

struct G2Tag {
  /// b' = 3/xi (D-type twist) = 3 conj(xi) / |xi|^2 = 3(9 - u)/82.
  static constexpr Fp2 kCurveB = ff::xi().conjugate().mul_fp(
      ff::Fp::from_u64(3) * ff::Fp::from_u64(82).inverse_fermat());
  static constexpr const Fp2& curve_b() { return kCurveB; }
  static const Point<Fp2, G2Tag>& generator();
};
static_assert(G2Tag::kCurveB * ff::xi() == Fp2::from_u64(3, 0), "b' * xi != 3");

using G2 = Point<Fp2, G2Tag>;

/// The EIP-197 generator of the order-r subgroup of the twist.
inline constexpr G2 kG2Generator{
    Fp2{ff::Fp::from_u256({0x46debd5cd992f6ed, 0x674322d4f75edadd,
                           0x426a00665e5c4479, 0x1800deef121f1e76}),
        ff::Fp::from_u256({0x97e485b7aef312c2, 0xf1aa493335a9e712,
                           0x7260bfb731fb5d25, 0x198e9393920d483a})},
    Fp2{ff::Fp::from_u256({0x4ce6cc0166fa7daa, 0xe3d1e7690c43d37b,
                           0x4aab71808dcb408f, 0x12c85ea5db8c6deb}),
        ff::Fp::from_u256({0x55acdadcd122975b, 0xbc4b313370b38ef3,
                           0xec9e99ad690c3395, 0x090689d0585ff075})}};
static_assert(kG2Generator.is_on_curve(), "G2 generator not on the twist");
inline const G2& G2Tag::generator() { return kG2Generator; }

/// Process-wide fixed-base window table for the G2 generator (built lazily,
/// thread-safe). Use g2_mul_generator for k * g2 on any hot path.
const FixedBaseTable<G2>& g2_generator_table();
G2 g2_mul_generator(const ff::Fr& k);

G2 g2_random(primitives::SecureRng& rng);

/// True iff the point is on the twist AND in the order-r subgroup. Fast
/// path: the twist-endomorphism criterion psi(Q) == [6t^2] Q (one psi plus a
/// 127-bit ladder instead of the full 254-bit order-r ladder) — see g2.cpp
/// for the soundness argument. Contract deserialization pays this on every
/// public key.
bool g2_in_subgroup(const G2& p);

/// The untwist-Frobenius-twist endomorphism psi(x, y) = (gamma2 * conj(x),
/// gamma3 * conj(y)), needed for the optimal-ate final line additions.
G2 g2_frobenius(const G2& p);
/// psi^2 — multiplication of coordinates by the Fp-valued constants.
G2 g2_frobenius2(const G2& p);

/// 64-byte compressed encoding: x.c1 || x.c0 big-endian, flags in the top
/// bits of the first byte (bit7 infinity, bit6 y-parity of c0 — with c1's
/// parity breaking ties when y.c0 is zero is unnecessary: we define the sign
/// by lexicographic order of the full serialized y).
std::array<std::uint8_t, 64> g2_compress(const G2& p);
std::optional<G2> g2_decompress(std::span<const std::uint8_t, 64> bytes);

}  // namespace dsaudit::curve
