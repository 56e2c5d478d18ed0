#include "curve/params_check.hpp"

#include <stdexcept>

#include "curve/g1.hpp"
#include "curve/g2.hpp"
#include "curve/glv.hpp"

namespace dsaudit::curve {

namespace {

using bigint::VarUInt;

void require(bool ok, const char* what) {
  if (!ok) throw std::logic_error(std::string("BN254 parameter check failed: ") + what);
}

}  // namespace

void validate_bn254_parameters() {
  static const bool once = [] {
    // The moduli themselves are checked against p(t), r(t) at compile time
    // (static_asserts in field/fp.hpp).
    // 1. Generators are on their curves and have order r.
    require(G1::generator().is_on_curve(), "G1 generator not on curve");
    require(G1::generator().mul(ff::Fr::modulus()).is_infinity(),
            "G1 generator order != r");
    require(G2::generator().is_on_curve(), "G2 generator not on twist");
    require(g2_in_subgroup(G2::generator()), "G2 generator not in r-subgroup");

    // 2. Twist endomorphism psi satisfies psi(Q) = [p]Q on the r-subgroup
    //    (the eigenvalue of Frobenius on G2 is p mod r).
    ff::Fr p_mod_r = ff::Fr::from_u256(ff::Fp::modulus());
    G2 q = G2::generator().mul(ff::Fr::from_u64(12345));
    require(g2_frobenius(q) == q.mul(p_mod_r), "psi(Q) != [p]Q");
    require(g2_frobenius2(q) == q.mul(p_mod_r * p_mod_r), "psi^2(Q) != [p^2]Q");

    // 3. GLV endomorphism parameters, re-derived independently over VarUInt.
    //    lambda = 36t^3 + 18t^2 + 6t + 1, the cube root of unity mod r that
    //    phi(x, y) = (beta*x, y) realizes on G1; the lattice basis
    //    v1 = (a1, b1), v2 = (-b1, b2) spans the kernel of
    //    (k1, k2) -> k1 + k2*lambda mod r with determinant exactly r.
    const GlvParams& glv = glv_params();
    const VarUInt t{ff::kBnParamT};
    const VarUInt t2 = t * t, t3 = t2 * t;
    const VarUInt r{ff::Fr::modulus()};
    VarUInt lambda = VarUInt{36} * t3 + VarUInt{18} * t2 + VarUInt{6} * t +
                     VarUInt{1};
    VarUInt a1 = VarUInt{6} * t2 + VarUInt{4} * t + VarUInt{1};
    VarUInt b1 = VarUInt{2} * t + VarUInt{1};
    VarUInt b2 = VarUInt{6} * t2 + VarUInt{2} * t;
    require(lambda.to_u256() == glv.lambda, "GLV lambda != 36t^3+18t^2+6t+1");
    require(a1.to_u256() == glv.a1 && b1.to_u256() == glv.b1 &&
                b2.to_u256() == glv.b2,
            "GLV lattice basis mismatch");
    require((a1 * b2 + b1 * b1) == r, "GLV lattice determinant != r");
    // Exact polynomial identity for the BN family:
    //   lambda^2 + lambda + 1 = (36t^2 + 3) * r.
    require(lambda * lambda + lambda + VarUInt{1} ==
                (VarUInt{36} * t2 + VarUInt{3}) * r,
            "lambda^2 + lambda + 1 != (36t^2+3) r");
    // beta is a primitive cube root of unity in Fp, oriented so that the
    // curve endomorphism matches the eigenvalue lambda on all of G1.
    require(glv.beta != ff::Fp::one() &&
                glv.beta * glv.beta * glv.beta == ff::Fp::one(),
            "GLV beta not a primitive cube root of unity");
    G1 gpt = G1::generator().mul(ff::Fr::from_u64(987654321));
    G1 phi = gpt;
    {
      auto [x, y] = gpt.to_affine();
      phi = G1{x * glv.beta, y};
    }
    require(phi == gpt.mul_naive(glv.lambda), "phi(P) != [lambda]P");
    return true;
  }();
  (void)once;
}

}  // namespace dsaudit::curve
