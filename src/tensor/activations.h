// Span activation kernels that give libm's bits, vectorized.
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
//   - every branch is computed for all lanes and chosen by a select;
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
// -2|x| in (-2, -2^-54]) are kept. It runs in three stages over blocks of
// eight vectors, so the core overlaps eight independent dependency chains;
// that changes only the schedule, not any operation. tensor_test checks a
// stride of all inputs and every branch edge against std::tanh;
// activations_sweep_test checks all 2^32 inputs.
//
// apf::exp is glibc's expf (2.28 and later, sysdeps/ieee754/flt-32/e_expf.c):
// in double, x * 32 / ln2 = k + r by adding and subtracting 1.5 * 2^52,
// 2^(k/32) from glibc's 32-entry table plus k in the exponent, and the
// degree-3 polynomial in r, then one rounding to float. glibc ships two
// builds of that code, chosen by CPU: an FMA one and a plain one, and they
// can round differently for 20 <= |x| <= 88.8 (with glibc 2.36 they differ
// at two inputs, 32.5646 and -63.0995). The kernel does the plain one's
// operations (no FMA). Measured over every float input with glibc 2.36, it
// equals the FMA build for all |x| < 20 and the plain build for all
// |x| < 89. So a lane with |x| >= 20, +-inf or NaN is handed to scalar
// std::exp, and every output equals the expf that this host's libm picked,
// whichever it is: results do not move when the kernel replaces a libm call.
// apf::sigmoid is 1.f / (1.f + exp(-x)) in float, the operations of the
// scalar formula it replaces.
//
// Vectors. The kernels use GCC vector extensions, and activations.cpp is
// compiled with -ffp-contract=off, so no multiply-add may be fused. They
// run on the instruction set tensor/simd.h picks for the process: tanh on
// 4 float lanes (baseline) or 8 (AVX2), in blocks of eight vectors loaded
// and stored in place (only a span's tail is staged through a zero-padded
// copy); exp and sigmoid on 2 or 4 double lanes, in blocks of two float
// vectors, that is four double vectors side by side. Per block one vector
// compare and a movemask find the lanes for libm, and on AVX2 the 2^(i/32)
// table is read with one gather per double vector (raw builtins, as
// vector extensions reach neither); the baseline looks the table up a lane
// at a time. A lane count or a block changes only how many elements run
// side by side, so both sets give the same bits. tensor_test checks the
// edges of each kernel, every block edge and slot included;
// activations_sweep_test checks all 2^32 inputs of each against libm, and
// CI runs both again with GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA, which
// selects both glibc's plain expf and the baseline vectors.
#pragma once

#include <span>

namespace apf {

/// y[i] = tanh(x[i]), bit-identical to glibc's tanhf (NaN maps to NaN).
/// `y` must have x's length and may be the same span as `x`; partial
/// overlap is not allowed.
void tanh(std::span<const float> x, std::span<float> y);

/// y[i] = exp(x[i]), bit-identical to the host libm's expf (NaN maps to
/// NaN). Same span rules as tanh.
void exp(std::span<const float> x, std::span<float> y);

/// y[i] = 1.f / (1.f + expf(-x[i])), bit-identical to that float formula
/// over the host libm's expf. Same span rules as tanh.
void sigmoid(std::span<const float> x, std::span<float> y);

}  // namespace apf
