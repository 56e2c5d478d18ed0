#include "bigint/u256.hpp"

#include <algorithm>
#include <stdexcept>

namespace dsaudit::bigint {

namespace {

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

U256 U256::from_hex(std::string_view hex) {
  if (hex.starts_with("0x") || hex.starts_with("0X")) hex.remove_prefix(2);
  if (hex.empty()) throw std::invalid_argument("U256::from_hex: empty string");
  if (hex.size() > 64) throw std::invalid_argument("U256::from_hex: overflow");
  U256 r;
  unsigned nibble = 0;
  for (auto it = hex.rbegin(); it != hex.rend(); ++it, ++nibble) {
    int d = hex_digit(*it);
    if (d < 0) throw std::invalid_argument("U256::from_hex: bad digit");
    r.limb[nibble / 16] |= static_cast<u64>(d) << (4 * (nibble % 16));
  }
  return r;
}

U256 U256::from_dec(std::string_view dec) {
  if (dec.empty()) throw std::invalid_argument("U256::from_dec: empty string");
  U256 r;
  for (char c : dec) {
    if (c < '0' || c > '9') throw std::invalid_argument("U256::from_dec: bad digit");
    // r = r * 10 + digit
    u128 carry = static_cast<u64>(c - '0');
    for (int i = 0; i < 4; ++i) {
      u128 v = static_cast<u128>(r.limb[i]) * 10 + carry;
      r.limb[i] = static_cast<u64>(v);
      carry = v >> 64;
    }
    if (carry != 0) throw std::invalid_argument("U256::from_dec: overflow");
  }
  return r;
}

U256 U256::from_be_bytes(std::span<const std::uint8_t, 32> bytes) {
  U256 r;
  for (int i = 0; i < 32; ++i) {
    r.limb[3 - i / 8] |= static_cast<u64>(bytes[i]) << (8 * (7 - i % 8));
  }
  return r;
}

void U256::to_be_bytes(std::span<std::uint8_t, 32> out) const {
  for (int i = 0; i < 32; ++i) {
    out[i] = static_cast<std::uint8_t>(limb[3 - i / 8] >> (8 * (7 - i % 8)));
  }
}

std::string U256::to_hex() const {
  static const char* digits = "0123456789abcdef";
  std::string s = "0x";
  bool leading = true;
  for (int i = 63; i >= 0; --i) {
    int d = static_cast<int>((limb[i / 16] >> (4 * (i % 16))) & 0xf);
    if (leading && d == 0 && i != 0) continue;
    leading = false;
    s.push_back(digits[d]);
  }
  return s;
}

std::string U256::to_dec() const {
  if (is_zero()) return "0";
  U256 v = *this;
  std::string s;
  while (!v.is_zero()) {
    // divide by 10, collect remainder
    u128 rem = 0;
    for (int i = 3; i >= 0; --i) {
      u128 cur = (rem << 64) | v.limb[i];
      v.limb[i] = static_cast<u64>(cur / 10);
      rem = cur % 10;
    }
    s.push_back(static_cast<char>('0' + static_cast<int>(rem)));
  }
  std::reverse(s.begin(), s.end());
  return s;
}

U256 mul_lo(const U256& a, const U256& b) {
  U256 r;
  for (int i = 0; i < 4; ++i) {
    u128 carry = 0;
    for (int j = 0; i + j < 4; ++j) {
      u128 v = static_cast<u128>(a.limb[i]) * b.limb[j] + r.limb[i + j] + carry;
      r.limb[i + j] = static_cast<u64>(v);
      carry = v >> 64;
    }
  }
  return r;
}

U256 mul_high_rounded(const U256& a, const U256& b) {
  U512 w = mul_wide(a, b);
  // Add 2^255 to the low half and propagate the carry into the high half.
  u128 carry = (static_cast<u128>(w.limb[3]) + (u64{1} << 63)) >> 64;
  U256 hi = w.hi();
  for (int i = 0; i < 4 && carry; ++i) {
    u128 v = static_cast<u128>(hi.limb[i]) + carry;
    hi.limb[i] = static_cast<u64>(v);
    carry = v >> 64;
  }
  return hi;
}

U256 inv_mod(const U256& a, const U256& m) {
  if (a.is_zero()) throw std::domain_error("inv_mod: zero has no inverse");
  if (!m.is_odd()) throw std::domain_error("inv_mod: modulus must be odd");
  // Extended binary GCD (classic almost-inverse-free variant):
  // maintain u*a ≡ x (mod m), v*a ≡ y (mod m) with gcd tracking.
  U256 x = a, y = m;
  U256 u{1}, v{0};
  while (!x.is_zero()) {
    while (!x.is_odd()) {
      x = shr1(x);
      if (u.is_odd()) {
        U256 t;
        u64 carry = add_with_carry(u, m, t);
        u = shr1(t);
        if (carry) u.limb[3] |= 0x8000000000000000ULL;
      } else {
        u = shr1(u);
      }
    }
    while (!y.is_odd()) {
      y = shr1(y);
      if (v.is_odd()) {
        U256 t;
        u64 carry = add_with_carry(v, m, t);
        v = shr1(t);
        if (carry) v.limb[3] |= 0x8000000000000000ULL;
      } else {
        v = shr1(v);
      }
    }
    if (!lt(x, y)) {
      x = sub_mod(x, y, m);
      u = sub_mod(u, v, m);
    } else {
      y = sub_mod(y, x, m);
      v = sub_mod(v, u, m);
    }
  }
  if (!(y == U256{1})) throw std::domain_error("inv_mod: not invertible");
  return v;
}

}  // namespace dsaudit::bigint
