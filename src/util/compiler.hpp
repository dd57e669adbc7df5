/**
 * @file
 * Portable compiler hints for hot numeric kernels.
 *
 * The hints never change results — they only license vectorisation the
 * optimiser must otherwise forgo (e.g. proving two pointers don't
 * alias). Keep them on kernels measured hot (bench_simloop), not
 * sprinkled speculatively.
 */

#ifndef VGUARD_UTIL_COMPILER_HPP
#define VGUARD_UTIL_COMPILER_HPP

/** C99-style `restrict` for C++ (GCC/Clang/MSVC spellings). */
#if defined(__GNUC__) || defined(__clang__)
#define VGUARD_RESTRICT __restrict__
#elif defined(_MSC_VER)
#define VGUARD_RESTRICT __restrict
#else
#define VGUARD_RESTRICT
#endif

/** Promise `p` is aligned to `a` bytes (evaluates to the pointer). */
#if defined(__GNUC__) || defined(__clang__)
#define VGUARD_ASSUME_ALIGNED(p, a) \
    (static_cast<decltype(p)>(__builtin_assume_aligned((p), (a))))
#else
#define VGUARD_ASSUME_ALIGNED(p, a) (p)
#endif

#endif // VGUARD_UTIL_COMPILER_HPP
