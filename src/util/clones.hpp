// CPU-dispatched kernel clones.
//
// CAGNET_KERNEL_CLONES compiles a kernel twice, for AVX2 and for the
// baseline x86-64 target the library is built for, and an ifunc resolver
// picks one by CPU once per process. A clone may vectorize only across
// independent output elements, and no clone may enable FMA (avx512f,
// fma, x86-64-v3, ...): under the C++ default -ffp-contract=fast the
// compiler would fuse `acc += a * b` and change the result bits.
// tools/lint_invariants.py (rule fma-free-clones) rejects such targets.
//
// ThreadSanitizer builds compile the baseline only. GCC instruments the
// resolver itself, which runs before the TSan runtime has started, so
// every binary would crash at load; the baseline gives the same bits.
#pragma once

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CAGNET_TSAN_BUILD 1
#endif
#endif

#if defined(__SANITIZE_THREAD__) || defined(CAGNET_TSAN_BUILD)
#define CAGNET_KERNEL_CLONES
#else
#define CAGNET_KERNEL_CLONES __attribute__((target_clones("avx2", "default")))
#endif
