// Span activation kernels that do not call libm.
//
// apf::tanh is glibc's float tanh, reproduced bit for bit. glibc's tanhf
// is the fdlibm (Sun, 1993) tanhf over fdlibm's expm1f, as translated to
// float by Ian Lance Taylor / Cygnus (sysdeps/ieee754/flt-32/s_tanhf.c and
// s_expm1f.c). Both are straight-line IEEE float arithmetic: no table, no
// double, no FMA, and unlike expf glibc ships no ifunc variant of them
// selected by CPU features. So the same float operations, in the same
// order, give the same bits on any x86-64 host, whatever libm picks for
// other functions.
//
// Exactness argument. The kernel performs, for each element, the float
// operations the scalar code performs on its path, in the same order; each
// is a correctly rounded IEEE operation, so each intermediate is the same
// float. The only rewrites are value-preserving:
//   - every branch is computed for all four lanes and chosen by a select;
//   - negations (-2|x|, tanhf's final -z) flip the sign bit, as IEEE
//     negation does;
//   - expm1f's k = -1 and k = 0 reductions are the general reduction with
//     that k (t * ln2_hi for t = -1 is -ln2_hi exactly, and for t = 0 the
//     reduction leaves x unchanged and c = 0);
//   - 1 - 2^-k is built as the float subtraction 1.0f - 2^-k, which is
//     exact for k <= 24 and equals fdlibm's bit construction, and a
//     subtraction of +0 stands in for a skipped one;
//   - the quotient of both tanhf branches, 1 - 2/(t+2) and -t/(t+2), is one
//     division with the numerator selected first;
//   - tanhf's |x| < 2^-55 branch x*(1+x) also covers x = +-0, and a NaN
//     takes it too (any NaN is accepted for a NaN).
// Only the expm1f paths that tanhf reaches (arguments 2|x| in [2, 44) and
// -2|x| in (-2, -2^-54]) are kept. The file is compiled with
// -ffp-contract=off, so no multiply-add may be fused; it uses GCC vector
// extensions (vector_size(16): four float lanes) and no intrinsics or
// target flags, like the GEMM tiles in ops.cpp. It runs in three stages
// over blocks of eight vectors, so the core overlaps eight independent
// dependency chains; that changes only the schedule, not any operation.
// tensor_test checks a stride of all inputs and every branch edge against
// std::tanh; activations_sweep_test checks all 2^32 inputs.
//
// expf is not covered. glibc 2.28+ expf is a table-driven double
// evaluation with an FMA ifunc variant, and the two variants round
// differently for 20 <= |x| <= 88.8. A bit-exact kernel must pick one of
// them (or a third), so routing sigmoid and softmax_rows through it changes
// results on some host and needs its own re-pin of every golden digest.
#pragma once

#include <span>

namespace apf {

/// y[i] = tanh(x[i]), bit-identical to glibc's tanhf (NaN maps to NaN).
/// `y` must have x's length and may be the same span as `x`; partial
/// overlap is not allowed.
void tanh(std::span<const float> x, std::span<float> y);

}  // namespace apf
