// G1: the prime-order-r group E(Fp) : y^2 = x^3 + 3, generator (1, 2).
// The curve has cofactor 1, so every finite curve point is in the group.
//
// Includes the protocol's random oracle H : {0,1}* -> G1 (try-and-increment
// over Keccak-256) and the canonical 32-byte point compression that gives the
// paper's 96-byte non-private proofs.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "curve/fixed_base.hpp"
#include "curve/glv.hpp"
#include "curve/point.hpp"
#include "field/fp.hpp"

namespace dsaudit::curve {

using ff::Fp;

struct G1Tag {
  static constexpr Fp kCurveB = Fp::from_u64(3);
  static constexpr const Fp& curve_b() { return kCurveB; }
  static const Point<Fp, G1Tag>& generator();
  /// GLV endomorphism constant: phi(x, y) = (endo_beta() * x, y) acts as
  /// multiplication by lambda on G1 (cofactor 1, so on every curve point).
  /// Declaring this opts the whole scalar layer — Point::mul, msm,
  /// msm_precomputed — into endomorphism-split mode for this group; G2's tag
  /// deliberately omits it (the twist's cofactor points break the eigenvalue
  /// relation, and g2_in_subgroup needs integer-multiple semantics).
  static constexpr const Fp& endo_beta() { return kGlv.beta; }
};

using G1 = Point<Fp, G1Tag>;

inline constexpr G1 kG1Generator{Fp::from_u64(1), Fp::from_u64(2)};
inline const G1& G1Tag::generator() { return kG1Generator; }

/// Process-wide fixed-base window table for the G1 generator (built lazily,
/// thread-safe). Use g1_mul_generator for k * g1 on any hot path.
const FixedBaseTable<G1>& g1_generator_table();
G1 g1_mul_generator(const ff::Fr& k);

/// Uniform-enough random group element (random scalar times the generator).
G1 g1_random(primitives::SecureRng& rng);

/// H(name || i): hash arbitrary bytes onto the curve by try-and-increment.
/// Deterministic; ~2 attempts expected. Used for block-index binding in the
/// authenticators sigma_i = (g1^{M_i(alpha)} * H(name||i))^x.
G1 hash_to_g1(std::span<const std::uint8_t> data);
G1 hash_to_g1(std::string_view s);

/// 32-byte compressed encoding: big-endian x with bit 255 = infinity flag and
/// bit 254 = parity of y (p is 254 bits, so both are free).
std::array<std::uint8_t, 32> g1_compress(const G1& p);
/// Decompress; nullopt on any malformed encoding (x >= p, x not on curve,
/// bad padding bits).
std::optional<G1> g1_decompress(std::span<const std::uint8_t, 32> bytes);

}  // namespace dsaudit::curve
