// Startup self-validation of the BN254 curve constants.
//
// Everything in the crypto stack flows from a handful of constants (the BN
// parameter t, the two moduli, the G2 generator). A silent typo would
// produce a scheme that "works" against itself but is not BN254. The moduli
// and their Montgomery constants are checked against p(t), r(t) at compile
// time (static_asserts in field/fp.hpp), and p - r = 6t^2 in
// pairing/pairing.cpp. This run-time check covers what needs curve
// arithmetic: generators, subgroup orders, the twist endomorphism and the
// GLV parameters. Called once from tests and from library entry points;
// throws std::logic_error with a description on any mismatch.
#pragma once

namespace dsaudit::curve {

void validate_bn254_parameters();

}  // namespace dsaudit::curve
