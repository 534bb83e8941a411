// Backend selection and dispatch-table publication. See backend.h for
// the selection policy and thread-safety contract.
#include "dsp/backend.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "dsp/backend_kernels.h"

namespace mmr::dsp {

namespace {

const KernelTable* table_for(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return detail::scalar_table();
    case Backend::kPortable:
      return detail::portable_table();
    case Backend::kAvx2:
      return detail::avx2_table();
    case Backend::kNeon:
      return detail::neon_table();
  }
  return nullptr;
}

bool cpu_supports(Backend b) {
  switch (b) {
    case Backend::kScalar:
    case Backend::kPortable:
      return true;
    case Backend::kAvx2:
#if defined(__x86_64__) || defined(_M_X64)
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
    case Backend::kNeon:
#if defined(__aarch64__)
      return true;
#else
      return false;
#endif
  }
  return false;
}

// Priority order for automatic selection and compiled_backends().
constexpr Backend kPriority[] = {Backend::kAvx2, Backend::kNeon,
                                 Backend::kPortable, Backend::kScalar};

std::atomic<const KernelTable*> g_table{nullptr};
std::atomic<Backend> g_backend{Backend::kScalar};

// First-use initialization (not static-init): resolves the
// MMR_KERNEL_BACKEND override, falling back to automatic selection with
// a stderr warning rather than throwing from a pre-main context.
void ensure_init() {
  static const bool init = [] {
    Backend pick = best_backend();
    if (const char* env = std::getenv("MMR_KERNEL_BACKEND")) {
      const auto parsed = parse_backend(env);
      if (!parsed) {
        std::fprintf(stderr,
                     "mmr: MMR_KERNEL_BACKEND=%s is not a known backend "
                     "(scalar|portable|avx2|neon|auto); using %s\n",
                     env, std::string(backend_name(pick)).c_str());
      } else if (!backend_supported(*parsed)) {
        std::fprintf(stderr,
                     "mmr: MMR_KERNEL_BACKEND=%s is not compiled in or not "
                     "executable on this CPU; using %s\n",
                     env, std::string(backend_name(pick)).c_str());
      } else {
        pick = *parsed;
      }
    }
    g_table.store(table_for(pick), std::memory_order_relaxed);
    g_backend.store(pick, std::memory_order_relaxed);
    return true;
  }();
  (void)init;
}

}  // namespace

std::vector<Backend> compiled_backends() {
  std::vector<Backend> out;
  for (Backend b : kPriority) {
    if (table_for(b) != nullptr) out.push_back(b);
  }
  return out;
}

bool backend_supported(Backend backend) {
  return table_for(backend) != nullptr && cpu_supports(backend);
}

Backend best_backend() {
  for (Backend b : kPriority) {
    if (backend_supported(b)) return b;
  }
  return Backend::kScalar;
}

Backend active_backend() {
  ensure_init();
  return g_backend.load(std::memory_order_relaxed);
}

bool set_backend(Backend backend) {
  ensure_init();
  if (!backend_supported(backend)) return false;
  g_table.store(table_for(backend), std::memory_order_relaxed);
  g_backend.store(backend, std::memory_order_relaxed);
  return true;
}

const KernelTable& active_table() {
  ensure_init();
  return *g_table.load(std::memory_order_relaxed);
}

std::string_view backend_name(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kPortable:
      return "portable";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kNeon:
      return "neon";
  }
  return "unknown";
}

std::optional<Backend> parse_backend(std::string_view name) {
  if (name == "scalar") return Backend::kScalar;
  if (name == "portable") return Backend::kPortable;
  if (name == "avx2") return Backend::kAvx2;
  if (name == "neon") return Backend::kNeon;
  if (name == "auto") return best_backend();
  return std::nullopt;
}

KernelTolerances tolerances(Backend backend) {
  // Budgets are a CONTRACT, not a snapshot of today's libm; measured
  // error is typically well under them. The abs_tol arm is relative to
  // the natural scale of the computation (sum of term magnitudes for
  // reductions, |alpha| for accumulates, 1 for unit phasors); see
  // tests/common/diff_harness.h. The dominant fast-path error is the
  // anchor+delta phase split -- fl(step*i) + fl(step*k) differs from
  // fl(step*(i+k)) by ~1 ulp of the TOTAL phase, so the absolute error
  // grows like ulp(|step| * n): < 1e-13 for production steering ranges
  // (total phase < ~1e3 rad), bounded by 1e-11 for total phase up to
  // ~4e4 rad, which the contracts below state.
  switch (backend) {
    case Backend::kScalar:
      return KernelTolerances{};  // the reference: exact by definition
    case Backend::kPortable:
    case Backend::kNeon:  // reuses the portable phasor/delay kernels
    case Backend::kAvx2: {
      KernelTolerances t;
      t.phasor_ramp = {64, 1e-11};
      t.dot = {512, 1e-11};
      t.axpy = {64, 1e-11};
      t.delay_phasors = {512, 1e-9};
      // Portable and NEON run the scalar transcendental loops (exact).
      // AVX2 swaps libm for ~1-ulp polynomials and keeps every other
      // operation, so the ULP arm covers results away from zero; the
      // absolute arm covers the zeros of cos/sin/sinc and the cancelling
      // components of the CSI rotation, where an ulp of the operands is
      // many ulps of a near-zero result. Measured over 1.3e7-2.6e7
      // elements each: box_muller 3 ulp (4.4e-16 x r), sinc_column 2 ulp
      // (2.2e-16), impair_csi 4.2e-16 x |truth + noise|.
      if (backend == Backend::kAvx2) {
        t.box_muller = {4, 1e-15};
        t.impair_csi = {4, 1e-15};
        t.sinc_column = {4, 1e-15};
      }
      return t;
    }
  }
  return KernelTolerances{};
}

}  // namespace mmr::dsp
