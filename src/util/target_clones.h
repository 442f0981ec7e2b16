#ifndef TCOMP_UTIL_TARGET_CLONES_H_
#define TCOMP_UTIL_TARGET_CLONES_H_

// TCOMP_TARGET_CLONES marks a hot kernel for per-ISA code generation.
//
// Baseline x86-64 codegen is SSE2, which leaves 2x-8x of compare-lane
// width on the table on the AVX2/AVX-512 fleet hardware. target_clones
// emits one copy of the function per listed ISA plus the baseline and
// picks at load time via the glibc ifunc resolver — no global -march
// flag, so the rest of the binary stays portable. A clone must compute
// exactly what the baseline computes; a kernel whose lanes do floating
// point also needs -ffp-contract=off on its translation unit (see
// util/eps_filter.cc).
//
// ThreadSanitizer builds get the baseline copy only: the ifunc resolver
// runs during relocation, before the TSan runtime is initialized, and an
// instrumented resolver crashes every binary linking the kernel at load.
// The TSan test lane therefore covers the baseline code of every kernel.
#if defined(__SANITIZE_THREAD__)
#define TCOMP_TARGET_CLONES
#elif defined(__x86_64__) && defined(__has_attribute) && !defined(__clang__)
#if __has_attribute(target_clones)
#define TCOMP_TARGET_CLONES \
  __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef TCOMP_TARGET_CLONES
#define TCOMP_TARGET_CLONES
#endif

#endif  // TCOMP_UTIL_TARGET_CLONES_H_
