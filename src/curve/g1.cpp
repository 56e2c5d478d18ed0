#include "curve/g1.hpp"

#include "primitives/keccak256.hpp"

namespace dsaudit::curve {

const FixedBaseTable<G1>& g1_generator_table() {
  static const FixedBaseTable<G1> table(G1::generator());
  return table;
}

G1 g1_mul_generator(const ff::Fr& k) { return g1_generator_table().mul(k); }

G1 g1_random(primitives::SecureRng& rng) {
  return g1_mul_generator(Fr::random(rng));
}

G1 hash_to_g1(std::span<const std::uint8_t> data) {
  // Try-and-increment: x = Keccak(data || ctr) mod p until x^3+3 is square.
  // The expected number of iterations is 2; the parity of y is taken from the
  // hash as well so the map does not favour one square root.
  std::vector<std::uint8_t> buf(data.begin(), data.end());
  buf.resize(data.size() + 4);
  for (std::uint32_t ctr = 0;; ++ctr) {
    buf[data.size()] = static_cast<std::uint8_t>(ctr >> 24);
    buf[data.size() + 1] = static_cast<std::uint8_t>(ctr >> 16);
    buf[data.size() + 2] = static_cast<std::uint8_t>(ctr >> 8);
    buf[data.size() + 3] = static_cast<std::uint8_t>(ctr);
    auto h = primitives::Keccak256::hash(buf);
    bool want_odd = (h[0] & 0x80) != 0;  // consumed before the mod-p mapping
    Fp x = Fp::from_be_bytes_mod(std::span<const std::uint8_t, 32>(h));
    Fp rhs = x.square() * x + G1Tag::curve_b();
    if (auto y = rhs.sqrt()) {
      Fp yy = (y->is_odd_canonical() == want_odd) ? *y : -*y;
      G1 p{x, yy};
      return p;
    }
  }
}

G1 hash_to_g1(std::string_view s) {
  return hash_to_g1(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

std::array<std::uint8_t, 32> g1_compress(const G1& p) {
  std::array<std::uint8_t, 32> out{};
  if (p.is_infinity()) {
    out[0] = 0x80;  // infinity flag, rest zero
    return out;
  }
  auto [x, y] = p.to_affine();
  x.to_be_bytes(out);
  if (y.is_odd_canonical()) out[0] |= 0x40;
  return out;
}

std::optional<G1> g1_decompress(std::span<const std::uint8_t, 32> bytes) {
  std::array<std::uint8_t, 32> buf;
  std::copy(bytes.begin(), bytes.end(), buf.begin());
  bool inf = (buf[0] & 0x80) != 0;
  bool odd = (buf[0] & 0x40) != 0;
  buf[0] &= 0x3f;
  if (inf) {
    for (auto b : buf) {
      if (b != 0) return std::nullopt;
    }
    if (odd) return std::nullopt;
    return G1::infinity();
  }
  ff::U256 xi = ff::U256::from_be_bytes(buf);
  if (!bigint::lt(xi, Fp::modulus())) return std::nullopt;  // non-canonical
  Fp x = Fp::from_u256(xi);
  Fp rhs = x.square() * x + G1Tag::curve_b();
  auto y = rhs.sqrt();
  if (!y) return std::nullopt;
  Fp yy = (y->is_odd_canonical() == odd) ? *y : -*y;
  return G1{x, yy};
}

}  // namespace dsaudit::curve
