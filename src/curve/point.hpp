// Short-Weierstrass points in Jacobian coordinates, shared by G1 and G2.
//
// Curve equation: y^2 = x^3 + b over the coordinate field F, with b supplied
// by the curve tag (b = 3 for G1; b = 3/(9+u) for the sextic twist hosting
// G2). Jacobian coordinates (X, Y, Z) represent the affine point
// (X/Z^2, Y/Z^3); infinity is Z = 0.
//
// The scalar-multiplication layer on top:
//   - AffinePoint + mixed Jacobian/affine addition (madd-2007-bl, 7M+4S vs.
//     11M+5S for the general add) — the workhorse of every fast path;
//   - batch_to_affine: Jacobian -> affine for whole point sets with a single
//     field inversion (Montgomery's trick);
//   - Point::mul: GLV-split signed-digit wNAF on G1, width-5 wNAF on G2,
//     each over a batch-normalized table of odd multiples;
//   - msm: Pippenger bucketing over affine bases with signed windows (half
//     the buckets), limb-wise digit extraction, and batched affine bucket
//     accumulation that amortizes one inversion over thousands of additions;
//   - all three MSM entry points shard their signed-digit window positions
//     across the parallel::thread_pool (see detail::msm_sharded), falling
//     back to the identical sequential pipeline at one thread.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "curve/glv.hpp"
#include "field/batch_inverse.hpp"
#include "field/fp.hpp"
#include "parallel/thread_pool.hpp"

namespace dsaudit::curve {

/// A curve tag opts into GLV endomorphism-split scalar arithmetic by
/// exposing the endomorphism constant (see G1Tag::endo_beta). Split mode
/// requires the group to have cofactor 1 (every point has order r), so
/// scalars may be reduced mod r and phi acts as [lambda] on every input.
template <typename Tag>
concept HasEndomorphism = requires { Tag::endo_beta(); };

using ff::Fr;
using ff::U256;

/// A finite curve point (x, y), or infinity. This is the memory- and
/// operation-efficient representation for *inputs* to addition chains; all
/// accumulation happens in Jacobian coordinates.
template <typename F, typename Tag>
struct AffinePoint {
  F x, y;
  bool infinity = true;

  AffinePoint() = default;  // infinity
  AffinePoint(const F& x_, const F& y_) : x(x_), y(y_), infinity(false) {}

  bool is_infinity() const { return infinity; }

  AffinePoint operator-() const {
    AffinePoint r = *this;
    if (!r.infinity) r.y = -r.y;
    return r;
  }

  friend bool operator==(const AffinePoint& p, const AffinePoint& q) {
    if (p.infinity || q.infinity) return p.infinity == q.infinity;
    return p.x == q.x && p.y == q.y;
  }
};

template <typename F, typename Tag>
class Point {
 public:
  using Field = F;
  using TagType = Tag;
  using Affine = AffinePoint<F, Tag>;

  constexpr Point() : x_(F::one()), y_(F::one()), z_(F::zero()) {}  // infinity
  constexpr Point(const F& x, const F& y) : x_(x), y_(y), z_(F::one()) {}

  static Point infinity() { return Point(); }
  static const Point& generator() { return Tag::generator(); }
  static constexpr const F& curve_b() { return Tag::curve_b(); }

  static Point from_affine(const Affine& a) {
    if (a.infinity) return infinity();
    return Point(a.x, a.y);
  }

  constexpr bool is_infinity() const { return z_.is_zero(); }

  /// Affine coordinates; must not be called on the point at infinity.
  std::pair<F, F> to_affine() const {
    if (is_infinity()) throw std::logic_error("Point::to_affine: infinity");
    F zinv = z_.inverse();
    F zinv2 = zinv.square();
    return {x_ * zinv2, y_ * zinv2 * zinv};
  }

  Affine to_affine_point() const {
    if (is_infinity()) return Affine{};
    auto [x, y] = to_affine();
    return Affine{x, y};
  }

  /// Normalize a whole point set to affine with one field inversion
  /// (Montgomery's trick on the Z coordinates). Infinity maps to infinity.
  static std::vector<Affine> batch_to_affine(std::span<const Point> pts) {
    std::vector<F> zs(pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i) zs[i] = pts[i].z_;
    ff::batch_inverse(std::span<F>(zs));
    std::vector<Affine> out(pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (zs[i].is_zero()) continue;  // infinity: Z had no inverse
      F zinv2 = zs[i].square();
      out[i] = Affine{pts[i].x_ * zinv2, pts[i].y_ * zinv2 * zs[i]};
    }
    return out;
  }

  constexpr bool is_on_curve() const {
    if (is_infinity()) return true;
    // Y^2 = X^3 + b Z^6
    F z2 = z_.square();
    F z6 = z2.square() * z2;
    return y_.square() == x_.square() * x_ + curve_b() * z6;
  }

  Point operator-() const {
    Point r = *this;
    r.y_ = -r.y_;
    return r;
  }

  Point dbl() const {
    if (is_infinity()) return *this;
    // dbl-2009-l (a = 0)
    F a = x_.square();
    F b = y_.square();
    F c = b.square();
    F d = ((x_ + b).square() - a - c).dbl();
    F e = a + a + a;
    F f = e.square();
    Point r;
    r.x_ = f - d.dbl();
    r.y_ = e * (d - r.x_) - c.dbl().dbl().dbl();
    r.z_ = (y_ * z_).dbl();
    return r;
  }

  friend Point operator+(const Point& p, const Point& q) {
    if (p.is_infinity()) return q;
    if (q.is_infinity()) return p;
    // add-2007-bl
    F z1z1 = p.z_.square();
    F z2z2 = q.z_.square();
    F u1 = p.x_ * z2z2;
    F u2 = q.x_ * z1z1;
    F s1 = p.y_ * q.z_ * z2z2;
    F s2 = q.y_ * p.z_ * z1z1;
    if (u1 == u2) {
      if (s1 == s2) return p.dbl();
      return infinity();
    }
    F h = u2 - u1;
    F i = h.dbl().square();
    F j = h * i;
    F rr = (s2 - s1).dbl();
    F v = u1 * i;
    Point r;
    r.x_ = rr.square() - j - v.dbl();
    r.y_ = rr * (v - r.x_) - (s1 * j).dbl();
    r.z_ = ((p.z_ + q.z_).square() - z1z1 - z2z2) * h;
    return r;
  }
  friend Point operator-(const Point& p, const Point& q) { return p + (-q); }
  Point& operator+=(const Point& o) { return *this = *this + o; }

  /// Mixed addition with an affine point (madd-2007-bl): 7M+4S instead of
  /// the general add's 11M+5S.
  Point mixed_add(const Affine& q) const {
    if (q.infinity) return *this;
    if (is_infinity()) return from_affine(q);
    F z1z1 = z_.square();
    F u2 = q.x * z1z1;
    F s2 = q.y * z_ * z1z1;
    if (u2 == x_) {
      if (s2 == y_) return dbl();
      return infinity();
    }
    F h = u2 - x_;
    F hh = h.square();
    F i = hh.dbl().dbl();
    F j = h * i;
    F rr = (s2 - y_).dbl();
    F v = x_ * i;
    Point r;
    r.x_ = rr.square() - j - v.dbl();
    r.y_ = rr * (v - r.x_) - (y_ * j).dbl();
    r.z_ = (z_ + h).square() - z1z1 - hh;
    return r;
  }

  /// Scalar multiplication by a canonical integer. For endomorphism-capable
  /// groups (G1) this is the GLV 2-way interleaved signed-wNAF over
  /// {P, phi(P)} — half the doubling chain; otherwise the width-5 wNAF
  /// ladder. Tests pin both against a double-and-add oracle.
  Point mul(const U256& k) const {
    if constexpr (HasEndomorphism<Tag>) {
      return mul_glv(k);
    } else {
      return mul_wnaf(k);
    }
  }
  Point mul(const Fr& k) const { return mul(k.to_u256()); }

  /// Width-5 wNAF over a batch-normalized table of odd multiples:
  /// ~bit_length doublings plus one mixed addition every ~6 bits. In the
  /// library because it is G2's production mul; on G1 tests and benches use
  /// it as the GLV reference.
  Point mul_wnaf(const U256& k) const {
    if (is_infinity() || k.is_zero()) return infinity();

    constexpr unsigned w = kWnafWidth;
    std::vector<std::int8_t> naf = wnaf_digits(k, w);

    // Odd multiples 1P, 3P, ..., (2^{w-1}-1)P, normalized in one inversion.
    constexpr std::size_t table_size = std::size_t{1} << (w - 2);
    std::vector<Point> tbl(table_size);
    tbl[0] = *this;
    Point twice = dbl();
    for (std::size_t i = 1; i < table_size; ++i) tbl[i] = tbl[i - 1] + twice;
    std::vector<Affine> atbl = batch_to_affine(tbl);

    Point acc = infinity();
    for (std::size_t i = naf.size(); i-- > 0;) {
      acc = acc.dbl();
      int d = naf[i];
      if (d > 0) {
        acc = acc.mixed_add(atbl[d >> 1]);
      } else if (d < 0) {
        acc = acc.mixed_add(-atbl[(-d) >> 1]);
      }
    }
    return acc;
  }

  /// phi(X, Y, Z) = (beta * X, Y, Z): the GLV endomorphism, acting as
  /// multiplication by lambda. Only instantiated for endomorphism-tagged
  /// groups.
  Point endo() const {
    Point r = *this;
    r.x_ = r.x_ * Tag::endo_beta();
    return r;
  }

  /// GLV scalar multiplication: k reduced mod r (sound on cofactor-1
  /// groups, where every point has order r), split into half-scalars
  /// k = k1 + k2 * lambda, then one interleaved width-4 signed-wNAF pass
  /// over the joint odd-multiples table of {±P, ±phi(P)} — ~127 doublings
  /// instead of ~254, one shared normalization inversion.
  Point mul_glv(const U256& k) const {
    if (is_infinity() || k.is_zero()) return infinity();
    U256 v = k;
    while (!bigint::lt(v, Fr::modulus())) {
      U256 t;
      bigint::sub_with_borrow(v, Fr::modulus(), t);
      v = t;
    }
    if (v.is_zero()) return infinity();
    const GlvDecomposed dec = glv_decompose(v);

    constexpr unsigned w = kGlvWnafWidth;
    const std::vector<std::int8_t> n1 = wnaf_digits(dec.k1, w);
    const std::vector<std::int8_t> n2 = wnaf_digits(dec.k2, w);

    // Joint table: odd multiples of base1 = ±P in [0, ts), of base2 =
    // ±phi(P) in [ts, 2*ts) — the decomposition signs fold into the bases.
    constexpr std::size_t ts = std::size_t{1} << (w - 2);
    std::vector<Point> tbl(2 * ts);
    tbl[0] = dec.neg1 ? -*this : *this;
    Point twice = tbl[0].dbl();
    for (std::size_t i = 1; i < ts; ++i) tbl[i] = tbl[i - 1] + twice;
    tbl[ts] = dec.neg2 ? -endo() : endo();
    twice = tbl[ts].dbl();
    for (std::size_t i = 1; i < ts; ++i) tbl[ts + i] = tbl[ts + i - 1] + twice;
    std::vector<Affine> atbl = batch_to_affine(tbl);

    Point acc = infinity();
    for (std::size_t i = std::max(n1.size(), n2.size()); i-- > 0;) {
      acc = acc.dbl();
      if (i < n1.size()) {
        int d = n1[i];
        if (d > 0) {
          acc = acc.mixed_add(atbl[d >> 1]);
        } else if (d < 0) {
          acc = acc.mixed_add(-atbl[(-d) >> 1]);
        }
      }
      if (i < n2.size()) {
        int d = n2[i];
        if (d > 0) {
          acc = acc.mixed_add(atbl[ts + (d >> 1)]);
        } else if (d < 0) {
          acc = acc.mixed_add(-atbl[ts + ((-d) >> 1)]);
        }
      }
    }
    return acc;
  }

  friend Point operator*(const Fr& k, const Point& p) { return p.mul(k); }

  /// Equality in the group (compares the underlying affine points).
  friend bool operator==(const Point& p, const Point& q) {
    if (p.is_infinity() || q.is_infinity()) {
      return p.is_infinity() == q.is_infinity();
    }
    // X1 Z2^2 == X2 Z1^2  and  Y1 Z2^3 == Y2 Z1^3
    F z1z1 = p.z_.square();
    F z2z2 = q.z_.square();
    return p.x_ * z2z2 == q.x_ * z1z1 &&
           p.y_ * z2z2 * q.z_ == q.y_ * z1z1 * p.z_;
  }

  const F& jac_x() const { return x_; }
  const F& jac_y() const { return y_; }
  const F& jac_z() const { return z_; }

 private:
  using u64 = bigint::u64;
  static constexpr unsigned kWnafWidth = 5;
  // Narrower window for the GLV halves: two tables share the scan, so the
  // per-table build cost weighs double while each half only runs ~127 bits.
  static constexpr unsigned kGlvWnafWidth = 4;

  /// Signed odd digits: k = sum naf[i] * 2^i, naf[i] in {0, ±1, ±3, ...,
  /// ±(2^{w-1}-1)}, nonzero digits at least w apart. Rounding a digit up
  /// can briefly push the working value past 2^256; `carry` holds that bit.
  static std::vector<std::int8_t> wnaf_digits(const U256& k, unsigned w) {
    const int full = 1 << w;
    const u64 half = u64{1} << (w - 1);
    std::vector<std::int8_t> naf;
    naf.reserve(k.bit_length() + 2);
    U256 v = k;
    bool carry = false;
    while (!v.is_zero() || carry) {
      std::int8_t d = 0;
      if (v.is_odd()) {
        u64 low = v.limb[0] & (full - 1);
        if (low > half) {
          d = static_cast<std::int8_t>(static_cast<int>(low) - full);
          if (bigint::add_with_carry(v, U256{static_cast<u64>(-d)}, v)) {
            carry = true;
          }
        } else {
          d = static_cast<std::int8_t>(low);
          bigint::sub_with_borrow(v, U256{low}, v);
        }
      }
      naf.push_back(d);
      v = bigint::shr1(v);
      if (carry) {
        v.limb[3] |= u64{1} << 63;
        carry = false;
      }
    }
    return naf;
  }

  F x_, y_, z_;
};

namespace detail {

/// Sum of two affine points given the batch-inverted chord denominator
/// d_inv = 1/(q.x - p.x), zero when the denominator was zero. Implements the
/// shared exceptional-case policy of every batched round: infinity is
/// encoded as y == 0 (valid for all odd-order BN254 groups, see
/// batch_affine_add_round below), a same-x doubling pays its own un-batched
/// inversion, and p == -q collapses to infinity.
template <typename F, typename Tag>
AffinePoint<F, Tag> affine_pair_sum(const AffinePoint<F, Tag>& p,
                                    const AffinePoint<F, Tag>& q,
                                    const F& d_inv) {
  if (!d_inv.is_zero()) [[likely]] {
    if (p.y.is_zero()) return q;  // p is infinity
    if (q.y.is_zero()) return p;  // q is infinity
    // lambda = (y2-y1)/(x2-x1); x3 = lambda^2 - x1 - x2
    F lambda = (q.y - p.y) * d_inv;
    F x3 = lambda.square() - p.x - q.x;
    return {x3, lambda * (p.x - x3) - p.y};
  }
  if (p.y.is_zero()) return q;  // p infinity (and the result, if q is too)
  if (q.y.is_zero()) return p;  // q infinity, p a finite point with matching x
  if (p.y == q.y) {
    // Doubling; pays an un-batched inversion, fine for a rare case.
    F x2 = p.x.square();
    F lambda = (x2 + x2 + x2) * p.y.dbl().inverse();
    F x3 = lambda.square() - p.x.dbl();
    return {x3, lambda * (p.x - x3) - p.y};
  }
  return {};  // p == -q
}

/// Batched inversion of the chord denominators: scratch[i] <- 1/dens[i] with
/// one field inversion total (prefix products forward, one inversion, walk
/// back). Zero denominators (same-x pairs, double-infinity pairs) are
/// skipped and come out zero — the pair-sum classification key.
template <typename F>
void batch_invert_chords(const std::vector<F>& dens, std::vector<F>& scratch) {
  const std::size_t n = dens.size();
  F run = F::one();
  for (std::size_t t = 0; t < n; ++t) {
    scratch[t] = run;
    if (!dens[t].is_zero()) run = run * dens[t];
  }
  F inv = run.inverse();
  for (std::size_t t = n; t-- > 0;) {
    if (dens[t].is_zero()) {
      scratch[t] = F::zero();
      continue;
    }
    F d_inv = inv * scratch[t];
    inv = inv * dens[t];
    scratch[t] = d_inv;
  }
}

/// One round of batched affine additions over a set of "runs" (contiguous
/// slices of `pts`): within each run listed in `active`, adjacent points are
/// paired and summed in place, halving the run (results compact to the front;
/// an odd leftover is carried behind them). All the additions' denominators
/// share a single batch inversion — ~6 multiplications per addition instead
/// of a 7M+4S mixed add. `active` is rewritten to the runs still holding more
/// than one point, so iterated rounds touch only live runs. Returns the
/// number of pairs processed this round.
/// Exceptional pairs (an infinity operand, a doubling, a cancellation) are
/// detected through y == 0 ⟺ infinity: every finite point of BN254's G1, G2
/// and even the full twist has y != 0, because those groups all have odd
/// order (no 2-torsion), and AffinePoint's infinity encoding zeroes y. That
/// keeps the hot path free of classification state: one unconditional
/// subtraction per pair feeds the batch inversion, and the rare specials are
/// sorted out in the write pass (a same-x doubling pays a full inversion
/// there — negligible for any input that isn't almost entirely duplicates).
template <typename F, typename Tag>
std::size_t batch_affine_add_round(std::vector<AffinePoint<F, Tag>>& pts,
                                   const std::vector<std::uint32_t>& offsets,
                                   std::vector<std::uint32_t>& len,
                                   std::vector<std::uint32_t>& active,
                                   std::vector<F>& dens, std::vector<F>& scratch) {
  // Pass 1: count pairs, then one unconditional denominator per pair.
  std::size_t pair_count = 0;
  for (std::uint32_t b : active) pair_count += len[b] / 2;
  if (pair_count == 0) {
    active.clear();
    return 0;
  }
  dens.resize(pair_count);
  scratch.resize(pair_count);
  std::size_t t = 0;
  for (std::uint32_t b : active) {
    const std::uint32_t n = len[b];
    const std::uint32_t off = offsets[b];
    for (std::uint32_t k = 0; k + 1 < n; k += 2) {
      dens[t++] = pts[off + k + 1].x - pts[off + k].x;
    }
  }

  batch_invert_chords(dens, scratch);

  // Pass 2: same walk; compute pair results, carry odd leftovers, update run
  // lengths, and rebuild `active` in place with the runs still longer than
  // one.
  std::size_t iv = 0, live = 0;
  for (std::uint32_t b : active) {
    const std::uint32_t n = len[b];
    const std::uint32_t off = offsets[b];
    for (std::uint32_t k = 0; k + 1 < n; k += 2) {
      pts[off + k / 2] =
          affine_pair_sum<F, Tag>(pts[off + k], pts[off + k + 1], scratch[iv++]);
    }
    // Odd element carries over behind the pair results (safe here: all of
    // this run's pair reads and writes are done).
    if (n & 1) pts[off + n / 2] = pts[off + n - 1];
    const std::uint32_t nn = n / 2 + (n & 1);
    len[b] = nn;
    if (nn > 1) active[live++] = b;
  }
  active.resize(live);
  return pair_count;
}

/// Signed window digit extraction for the unsplit cold msm:
/// digits[t * n + i] is scalar i's signed digit in [-half, half] at window
/// position t (position-major so every later pass is a linear scan; digit 0
/// never touches a bucket). Returns the number of positions actually used —
/// the highest position holding any nonzero digit plus one, 0 when every
/// scalar is zero.
inline unsigned extract_signed_digits(std::span<const Fr> scalars, unsigned c,
                                      unsigned positions,
                                      std::vector<std::int32_t>& digits) {
  const std::size_t n = scalars.size();
  const bigint::u64 half = bigint::u64{1} << (c - 1);
  digits.resize(std::size_t{positions} * n);
  unsigned used = 0;
  for (std::size_t i = 0; i < n; ++i) {
    U256 k = scalars[i].to_u256();
    bigint::u64 carry = 0;
    for (unsigned t = 0; t < positions; ++t) {
      bigint::u64 raw = k.extract_window(t * c, c) + carry;
      std::int32_t d;
      if (raw > half) {
        d = static_cast<std::int32_t>(raw) - (1 << c);
        carry = 1;
      } else {
        d = static_cast<std::int32_t>(raw);
        carry = 0;
      }
      digits[std::size_t{t} * n + i] = d;
      if (d != 0 && t + 1 > used) used = t + 1;
    }
  }
  return used;
}

/// Endomorphism-split digit extraction: scalar i GLV-decomposes into
/// k = k1 + k2 * lambda, and the digit matrix covers 2n virtual columns —
/// column i holds k1's signed digits (sign-folded), column n + i holds k2's.
/// Since |k1|, |k2| < 2^kGlvHalfBits, only ceil(kGlvHalfBits / c) + 1 window
/// positions exist: the same digit entries as an unsplit extraction of
/// full-width scalars, at half the window rows — half the bucket spaces and
/// half the Horner doublings downstream. Returns used positions, 0 when all
/// scalars are zero.
inline unsigned extract_signed_digits_glv(std::span<const Fr> scalars, unsigned c,
                                          unsigned positions,
                                          std::vector<std::int32_t>& digits) {
  const std::size_t n = scalars.size();
  const bigint::u64 half = bigint::u64{1} << (c - 1);
  digits.resize(std::size_t{positions} * 2 * n);
  unsigned used = 0;
  auto emit = [&](const U256& mag, bool neg, std::size_t col) {
    bigint::u64 carry = 0;
    for (unsigned t = 0; t < positions; ++t) {
      bigint::u64 raw = mag.extract_window(t * c, c) + carry;
      std::int32_t d;
      if (raw > half) {
        d = static_cast<std::int32_t>(raw) - (1 << c);
        carry = 1;
      } else {
        d = static_cast<std::int32_t>(raw);
        carry = 0;
      }
      if (neg) d = -d;
      digits[std::size_t{t} * 2 * n + col] = d;
      if (d != 0 && t + 1 > used) used = t + 1;
    }
  };
  for (std::size_t i = 0; i < n; ++i) {
    const GlvDecomposed dec = glv_decompose(scalars[i].to_u256());
    emit(dec.k1, dec.neg1, i);
    emit(dec.k2, dec.neg2, n + i);
  }
  return used;
}

/// Window positions needed by an endo-split digit matrix (+1: signed carry).
inline unsigned glv_digit_positions(unsigned c) {
  return (kGlvHalfBits + c - 1) / c + 1;
}

/// The whole bucket pipeline shared by msm and msm_precomputed, from signed
/// digits to the final point: counting-sort of the nonzero digits into bucket
/// runs, shared-round batched-affine tree reduction, the row/column
/// (w_d = u*K + v) gather and reduction, and the final combine. Operates on
/// the digit positions [t_begin, t_end) of the position-major digit array —
/// the sequential paths pass the full range, the sharded driver below hands
/// each pool task a contiguous sub-range.
///
/// Parameterized by the two things that differ between the callers:
///   - runs per position: with `per_position_buckets` every window position
///     owns its own bucket space and the combine runs Horner over positions
///     with c doublings per step (cold msm); without, all positions share one
///     bucket space — the precomputed table's shifted bases bake the 2^{ct}
///     weights in, so no doublings remain (msm_precomputed);
///   - the base lookup `base(t, i)`: position-independent bases for the cold
///     path, row t of the shifted-base table for msm_precomputed.
template <typename P, typename BaseFn>
P msm_from_digits(const std::int32_t* digits, std::size_t n, unsigned t_begin,
                  unsigned t_end, unsigned c, bool per_position_buckets,
                  BaseFn&& base) {
  using F = typename P::Field;
  using A = typename P::Affine;
  using u32 = std::uint32_t;
  const u32 half = u32{1} << (c - 1);
  // Row/column split of the bucket weight: w_d = b + 1 = u*K + v.
  const unsigned kbits = c / 2;
  const u32 K = u32{1} << kbits;
  const u32 R = half / K + 1;
  const unsigned used = t_end - t_begin;
  const unsigned spaces = per_position_buckets ? used : 1;

  // Counting-sort of all positions' nonzero digits into bucket runs;
  // bucket id = space * half + |digit| - 1.
  const std::size_t nb = std::size_t{spaces} * half;
  std::vector<u32> counts(nb, 0);
  for (unsigned t = t_begin; t < t_end; ++t) {
    const std::int32_t* dt = digits + std::size_t{t} * n;
    const std::size_t wb =
        per_position_buckets ? std::size_t{t - t_begin} * half : 0;
    for (std::size_t i = 0; i < n; ++i) {
      std::int32_t d = dt[i];
      if (d != 0) ++counts[wb + (d > 0 ? d : -d) - 1];
    }
  }
  // Index-based scatter: each entry lands as a packed (position, sign,
  // index) id — 8 bytes of random-access write instead of a 72-byte affine
  // copy (that copy was ~18% of the cold path at n >= 16k). Points
  // materialize exactly once, in the dedicated first halving round below,
  // which writes only ceil(entries/2) results into the compact layout the
  // in-place rounds then continue on. Packing bounds (index < 2^32,
  // position < 2^31) dwarf any MSM that fits in memory.
  std::vector<u32> scat_off(nb), scat_len(nb, 0);
  u32 entries = 0;
  for (std::size_t b = 0; b < nb; ++b) {
    scat_off[b] = entries;
    entries += counts[b];
  }
  std::vector<std::uint64_t> ids(entries);
  for (unsigned t = t_begin; t < t_end; ++t) {
    const std::int32_t* dt = digits + std::size_t{t} * n;
    const std::size_t wb =
        per_position_buckets ? std::size_t{t - t_begin} * half : 0;
    for (std::size_t i = 0; i < n; ++i) {
      std::int32_t d = dt[i];
      if (d == 0) continue;
      std::size_t b = wb + (d > 0 ? d : -d) - 1;
      ids[scat_off[b] + scat_len[b]++] =
          (std::uint64_t{t} << 33) | (std::uint64_t{d < 0} << 32) | i;
    }
  }
  auto id_x = [&base](std::uint64_t id) -> const F& {
    // Negation flips y only, so denominators read x straight off the base.
    return base(static_cast<unsigned>(id >> 33),
                static_cast<std::size_t>(id & 0xFFFFFFFFu))
        .x;
  };
  auto id_point = [&base](std::uint64_t id) -> A {
    A p = base(static_cast<unsigned>(id >> 33),
               static_cast<std::size_t>(id & 0xFFFFFFFFu));
    if (id & (std::uint64_t{1} << 32)) p.y = -p.y;
    return p;
  };

  // First halving round straight off the id array (same shared-inversion
  // policy as batch_affine_add_round, with the reads indirected), then the
  // generic in-place rounds finish each bucket.
  std::vector<u32> offsets(nb), len(nb, 0), active;
  u32 halved = 0;
  std::size_t pair_count = 0;
  for (std::size_t b = 0; b < nb; ++b) {
    offsets[b] = halved;
    len[b] = counts[b] / 2 + (counts[b] & 1);
    halved += len[b];
    pair_count += counts[b] / 2;
    if (len[b] > 1) active.push_back(static_cast<u32>(b));
  }
  std::vector<F> dens(pair_count), inv_scratch(pair_count);
  std::size_t tp = 0;
  for (std::size_t b = 0; b < nb; ++b) {
    const u32 cnt = counts[b];
    const u32 soff = scat_off[b];
    for (u32 k = 0; k + 1 < cnt; k += 2) {
      dens[tp++] = id_x(ids[soff + k + 1]) - id_x(ids[soff + k]);
    }
  }
  batch_invert_chords(dens, inv_scratch);
  std::vector<A> sorted(halved);
  std::size_t iv = 0;
  for (std::size_t b = 0; b < nb; ++b) {
    const u32 cnt = counts[b];
    if (cnt == 0) continue;
    const u32 soff = scat_off[b];
    const u32 doff = offsets[b];
    for (u32 k = 0; k + 1 < cnt; k += 2) {
      sorted[doff + k / 2] = affine_pair_sum<F, typename P::TagType>(
          id_point(ids[soff + k]), id_point(ids[soff + k + 1]),
          inv_scratch[iv++]);
    }
    if (cnt & 1) sorted[doff + cnt / 2] = id_point(ids[soff + cnt - 1]);
  }
  ids.clear();
  ids.shrink_to_fit();
  while (batch_affine_add_round<F, typename P::TagType>(sorted, offsets, len,
                                                        active, dens,
                                                        inv_scratch) > 0) {
  }

  // Gather bucket sums into row runs (u = w_d / K, skipping the weight-0 row
  // u = 0) and column runs (v = w_d % K, skipping v = 0), then tree-reduce
  // those with the same shared batched rounds. Run ids: rows at w * R + u,
  // columns at spaces * R + w * K + v. Both gathers visit run ids in
  // ascending order, so the runs come out contiguous.
  const std::size_t n_row_runs = std::size_t{spaces} * R;
  const std::size_t n_runs = n_row_runs + std::size_t{spaces} * K;
  std::vector<u32> g_off(n_runs, 0), g_len(n_runs, 0);
  std::vector<A> gathered;
  gathered.reserve(std::min<std::size_t>(entries, nb) + 16);
  active.clear();
  for (unsigned w = 0; w < spaces; ++w) {
    const std::size_t wb = std::size_t{w} * half;
    for (u32 b = 0; b < half; ++b) {
      if (len[wb + b] == 0) continue;
      const u32 u = (b + 1) >> kbits;
      if (u == 0) continue;
      const std::size_t run = std::size_t{w} * R + u;
      if (g_len[run] == 0) g_off[run] = static_cast<u32>(gathered.size());
      ++g_len[run];
      gathered.push_back(sorted[offsets[wb + b]]);
    }
  }
  for (unsigned w = 0; w < spaces; ++w) {
    const std::size_t wb = std::size_t{w} * half;
    for (u32 v = 1; v < K; ++v) {
      const std::size_t run = n_row_runs + std::size_t{w} * K + v;
      for (u32 u = 0; u * K + v - 1 < half; ++u) {
        const std::size_t b = wb + u * K + v - 1;
        if (len[b] == 0) continue;
        if (g_len[run] == 0) g_off[run] = static_cast<u32>(gathered.size());
        ++g_len[run];
        gathered.push_back(sorted[offsets[b]]);
      }
    }
  }
  for (std::size_t r = 0; r < n_runs; ++r) {
    if (g_len[r] > 1) active.push_back(static_cast<u32>(r));
  }
  while (batch_affine_add_round<F, typename P::TagType>(gathered, g_off, g_len,
                                                        active, dens,
                                                        inv_scratch) > 0) {
  }

  // Per-space combine: acc_w = K * sum_u u*Row_u + sum_v v*Col_v via two
  // short running sums (the only sequential Jacobian work left), then Horner
  // over the positions with c doublings per step (a no-op for the shared
  // bucket space, whose shifted bases already carry the weights).
  P total = P::infinity();
  for (unsigned w = spaces; w-- > 0;) {
    if (per_position_buckets) {
      for (unsigned i = 0; i < c; ++i) total = total.dbl();
    }
    P run = P::infinity();
    P s1 = P::infinity();
    for (u32 u = R; u-- > 1;) {
      const std::size_t r = std::size_t{w} * R + u;
      if (g_len[r]) run = run.mixed_add(gathered[g_off[r]]);
      s1 += run;
    }
    run = P::infinity();
    P s2 = P::infinity();
    for (u32 v = K; v-- > 1;) {
      const std::size_t r = n_row_runs + std::size_t{w} * K + v;
      if (g_len[r]) run = run.mixed_add(gathered[g_off[r]]);
      s2 += run;
    }
    for (unsigned i = 0; i < kbits; ++i) s1 = s1.dbl();
    total += s1 + s2;
  }
  return total;
}

/// Sharded driver over msm_from_digits: splits the used digit positions into
/// contiguous groups (one per pool thread, at most one per position), reduces
/// every group's bucket pipeline concurrently, and combines the group results
/// sequentially in descending group order. For the per-position (cold) path
/// the combine re-applies each group's 2^{c*t_begin} weight with c doublings
/// per covered position — the same total doubling count the unsharded Horner
/// pays. For the shared-space (precomputed) path the shifted bases already
/// carry the weights, so the combine is a plain ordered sum. With one thread
/// (or from inside a pool worker) this is exactly the unsharded pipeline.
template <typename P, typename BaseFn>
P msm_sharded(const std::vector<std::int32_t>& digits, std::size_t n,
              unsigned used, unsigned c, bool per_position_buckets,
              BaseFn&& base) {
  const unsigned threads = parallel::thread_count();
  // Below ~2^12 digit entries the whole pipeline runs in well under a
  // millisecond and fork/join overhead would dominate.
  if (threads <= 1 || parallel::in_worker() || used < 2 ||
      std::size_t{used} * n < 4096) {
    return msm_from_digits<P>(digits.data(), n, 0, used, c,
                              per_position_buckets, base);
  }
  const unsigned groups = threads < used ? threads : used;
  std::vector<unsigned> bounds(groups + 1);
  for (unsigned g = 0; g <= groups; ++g) {
    bounds[g] = static_cast<unsigned>((std::uint64_t{used} * g) / groups);
  }
  std::vector<P> partial(groups);
  parallel::parallel_for(groups, [&](std::size_t g) {
    partial[g] = msm_from_digits<P>(digits.data(), n, bounds[g], bounds[g + 1],
                                    c, per_position_buckets, base);
  });
  P total = P::infinity();
  for (unsigned g = groups; g-- > 0;) {
    if (per_position_buckets) {
      const unsigned span = bounds[g + 1] - bounds[g];
      for (unsigned i = 0; i < c * span; ++i) total = total.dbl();
    }
    total += partial[g];
  }
  return total;
}

}  // namespace detail

/// Multi-scalar multiplication via Pippenger bucketing: returns
/// sum scalars[i] * points[i]. The prover's two dominant ECC operations
/// (aggregating sigma = prod sigma_i^{c_i} and computing psi from the SRS)
/// are exactly this primitive.
///
/// Fast-path structure:
///   - bases are pre-normalized to affine (one inversion for the whole set);
///   - window digits are signed (halving the bucket count) and extracted
///     limb-wise from the canonical scalars, scanning the 254-bit Fr width
///     instead of 256;
///   - every window's buckets live in one global run array, and bucket
///     contents are tree-reduced with batched affine additions: one field
///     inversion per round is shared by every addition in every window;
///   - the classic sequential running-sum reduction is replaced by a
///     row/column split of the bucket weight (w = u*K + v), which turns all
///     but ~2(sqrt-bucket-count) of the reduction into batched affine
///     additions too. That makes wide windows cheap, cutting total work.
template <typename P>
P msm(std::span<const P> points, std::span<const Fr> scalars) {
  using A = typename P::Affine;
  if (points.size() != scalars.size()) {
    throw std::invalid_argument("msm: size mismatch");
  }
  if (points.empty()) return P::infinity();
  if (points.size() == 1) return points[0].mul(scalars[0]);

  const std::size_t n = points.size();
  // Window width c = log2(n)/2 + 4, measured optimum on this implementation
  // across n = 64..16384: total additions ~ (254/c + 1)*n + nonempty-buckets
  // is minimized where widening windows stops paying for the extra
  // reduction-tree work.
  const unsigned lg = std::bit_width(n);
  const unsigned c0 = (lg >> 1) + 4;
  const unsigned c = c0 < 4 ? 4 : (c0 > 16 ? 16 : c0);
  if constexpr (HasEndomorphism<typename P::TagType>) {
    // Endomorphism split: same scatter-entry count as the unsplit matrix at
    // full scalar width, but half the window rows — half the bucket spaces,
    // half the Horner doublings, and a much smaller per-space reduction
    // bill. Short scalars (e.g. the 128-bit settlement batch weights) skip
    // the split: below ~1.5x the half-scalar width the row savings cannot
    // recoup the doubled entries.
    unsigned max_bits = 0;
    for (const Fr& s : scalars) {
      max_bits = std::max(max_bits, s.to_u256().bit_length());
    }
    if (2 * max_bits > 3 * kGlvHalfBits) {
      std::vector<std::int32_t> digits;
      const unsigned used = detail::extract_signed_digits_glv(
          scalars, c, detail::glv_digit_positions(c), digits);
      if (used == 0) return P::infinity();
      std::vector<A> base = P::batch_to_affine(points);
      base.resize(2 * n);
      const auto& beta = P::TagType::endo_beta();
      for (std::size_t i = 0; i < n; ++i) {
        base[n + i] = base[i];
        base[n + i].x = base[i].x * beta;  // phi: (beta*x, y); infinity copies
      }
      return detail::msm_sharded<P>(
          digits, 2 * n, used, c, /*per_position_buckets=*/true,
          [&base](unsigned, std::size_t i) -> const A& { return base[i]; });
    }
  }

  // Scalars are canonical Fr values: bounded by the 254-bit modulus, not 256.
  const unsigned scalar_bits = Fr::modulus().bit_length();
  const unsigned windows = (scalar_bits + c - 1) / c + 1;  // +1: signed carry

  std::vector<std::int32_t> digits;
  const unsigned used = detail::extract_signed_digits(scalars, c, windows, digits);
  if (used == 0) return P::infinity();

  const std::vector<A> base = P::batch_to_affine(points);
  return detail::msm_sharded<P>(
      digits, n, used, c, /*per_position_buckets=*/true,
      [&base](unsigned, std::size_t i) -> const A& { return base[i]; });
}

/// Precomputed shifted bases for repeated MSMs over a fixed base set (a KZG
/// SRS, a commitment key, a file's hash points) of an endomorphism group:
/// row t holds the n shifted bases 2^{c*t} * B_i in affine, then their n phi
/// images, for the positions a GLV half-scalar digit matrix reaches. With
/// these, every digit position of every scalar lands in one shared bucket
/// space, so an MSM needs no doublings, a single reduction, and ~25% fewer
/// additions than the cold path — at ~2*positions*n*72 bytes of memory and a
/// one-time build of ~127 doublings per base.
template <typename P>
  requires HasEndomorphism<typename P::TagType>
struct MsmBasesTable {
  unsigned c = 0;          // digit width the table was built for
  unsigned positions = 0;  // digit positions covered: ceil(kGlvHalfBits/c) + 1
  std::size_t n = 0;       // number of bases
  std::vector<typename P::Affine> pts;
};

/// Builds the shifted-bases table. Window width is chosen for the expected
/// MSM size n unless `c` is forced nonzero.
template <typename P>
  requires HasEndomorphism<typename P::TagType>
MsmBasesTable<P> msm_precompute(std::span<const P> points, unsigned c = 0) {
  MsmBasesTable<P> tbl;
  tbl.n = points.size();
  if (c == 0) {
    // One window pass total, so wider windows than the cold heuristic: the
    // added reduction cost is a single bucket space. Measured optimum ~
    // log2(n)/2 + 7.
    const unsigned lg = std::bit_width(tbl.n | 1);
    c = (lg >> 1) + 7;
    if (c < 8) c = 8;
    if (c > 18) c = 18;
  }
  tbl.c = c;
  tbl.positions = detail::glv_digit_positions(c);
  std::vector<P> jac(std::size_t{tbl.positions} * tbl.n);
  for (std::size_t i = 0; i < tbl.n; ++i) jac[i] = points[i];
  // Each base's doubling chain is independent, so the build shards by base
  // column; per-column results are identical regardless of the pool width.
  const unsigned positions = tbl.positions;
  const std::size_t stride = tbl.n;
  parallel::parallel_for_ranges(tbl.n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      for (unsigned t = 1; t < positions; ++t) {
        P p = jac[std::size_t{t - 1} * stride + i];
        for (unsigned d = 0; d < c; ++d) p = p.dbl();
        jac[std::size_t{t} * stride + i] = p;
      }
    }
  });
  // The second half of every row is a phi image: one coordinate multiply
  // per entry instead of a c-deep doubling chain.
  const std::vector<typename P::Affine> flat = P::batch_to_affine(jac);
  tbl.pts.resize(2 * flat.size());
  const auto& beta = P::TagType::endo_beta();
  for (unsigned t = 0; t < positions; ++t) {
    for (std::size_t i = 0; i < stride; ++i) {
      const auto& src = flat[std::size_t{t} * stride + i];
      tbl.pts[std::size_t{t} * 2 * stride + i] = src;
      auto& phi = tbl.pts[std::size_t{t} * 2 * stride + stride + i];
      phi = src;
      phi.x = src.x * beta;  // infinity entries copy through unchanged
    }
  }
  return tbl;
}

namespace detail {

/// The pipeline behind both msm_precomputed overloads: sum scalars[j] *
/// B_{base_index(j)}. One shared bucket space for all positions — the
/// shifted bases carry the 2^{ct} weights, so no Horner doublings remain in
/// the combine. The scalars split into 2m half-scalar columns; column j < m
/// reads base base_index(j) of row t, column m + j its phi image.
template <typename P, typename IndexFn>
P msm_precomputed_indexed(const MsmBasesTable<P>& tbl, std::span<const Fr> scalars,
                          IndexFn base_index) {
  using A = typename P::Affine;
  std::vector<std::int32_t> digits;
  const unsigned used =
      extract_signed_digits_glv(scalars, tbl.c, tbl.positions, digits);
  if (used == 0) return P::infinity();
  const A* pts = tbl.pts.data();
  const std::size_t n = tbl.n, m = scalars.size();
  return msm_sharded<P>(
      digits, 2 * m, used, tbl.c, /*per_position_buckets=*/false,
      [pts, n, m, base_index](unsigned t, std::size_t i) -> const A& {
        const A* row = pts + std::size_t{t} * 2 * n;
        return i < m ? row[base_index(i)] : row[n + base_index(i - m)];
      });
}

}  // namespace detail

/// MSM against a precomputed table: sum scalars[i] * B_i for the first
/// scalars.size() <= tbl.n bases. Bit-identical to msm() / the naive sum.
template <typename P>
P msm_precomputed(const MsmBasesTable<P>& tbl, std::span<const Fr> scalars) {
  if (scalars.size() > tbl.n) {
    throw std::invalid_argument("msm_precomputed: too many scalars");
  }
  if (scalars.empty()) return P::infinity();
  return detail::msm_precomputed_indexed(tbl, scalars,
                                         [](std::size_t i) { return i; });
}

/// MSM of an arbitrary subset of a precomputed table's bases:
/// sum scalars[j] * B_{indices[j]} (duplicate indices allowed). The audit
/// verifier's chi = prod H(name||i)^{c_i} over challenged indices is exactly
/// this shape.
template <typename P>
P msm_precomputed(const MsmBasesTable<P>& tbl,
                  std::span<const std::uint64_t> indices,
                  std::span<const Fr> scalars) {
  if (scalars.size() != indices.size()) {
    throw std::invalid_argument("msm_precomputed: index/scalar size mismatch");
  }
  if (scalars.empty()) return P::infinity();
  for (std::uint64_t idx : indices) {
    if (idx >= tbl.n) {
      throw std::invalid_argument("msm_precomputed: index out of range");
    }
  }
  const std::uint64_t* idx = indices.data();
  return detail::msm_precomputed_indexed(
      tbl, scalars, [idx](std::size_t j) { return static_cast<std::size_t>(idx[j]); });
}

}  // namespace dsaudit::curve
