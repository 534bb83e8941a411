// Runtime-dispatched SIMD backends for the dsp::kernels hot kernels.
//
// Every kernel in dsp/kernels.h routes through a per-process dispatch
// table selected at startup:
//
//   * kScalar   -- the bit-exact reference loops (the PR-2 kernels,
//                  unchanged). This is the GOLDEN path: figure goldens,
//                  journal byte-identity and every %.17g pin run on it.
//   * kPortable -- FMA-friendly restructuring in plain C++ (independent
//                  accumulators, anchor+delta phasor evaluation). Compiles
//                  and runs on every target.
//   * kAvx2     -- AVX2+FMA intrinsics (x86-64). Always COMPILED on x86
//                  via function-level target attributes -- no -mavx2
//                  build flag needed -- and only EXECUTED when CPUID
//                  reports avx2+fma, so -DMMR_NATIVE=OFF binaries run
//                  correctly on any x86 machine.
//   * kNeon     -- NEON intrinsics (aarch64, where NEON is baseline).
//
// Selection: highest-priority backend supported by the running CPU
// (avx2/neon > portable > scalar), overridden by the MMR_KERNEL_BACKEND
// environment variable or the benches' --kernel-backend flag. An override
// naming an uncompiled or unsupported backend falls back to automatic
// selection with a one-line stderr warning -- tests that must force a
// backend use set_backend() and check its return value instead.
//
// Accuracy contract: kScalar is the reference. Fast backends may
// reassociate accumulations, evaluate phasors by anchor+rotation and (AVX2)
// evaluate log/sin/cos with in-tree polynomials instead of libm, so their
// results differ from the reference by a declared, bounded amount (see
// tolerances() and the table in DESIGN.md), enforced per backend by
// tests/dsp/kernel_differential_test.cpp over >= 1e4 randomized cases.
//
// Thread safety: set_backend() publishes the table with a relaxed atomic
// store and kernels load it per call; select a backend at startup, before
// worker threads start issuing kernels, and leave it alone. Concurrent
// set_backend() calls are safe but make which-table-a-kernel-sees racy.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace mmr::dsp {

enum class Backend {
  kScalar = 0,
  kPortable = 1,
  kAvx2 = 2,
  kNeon = 3,
};

/// Dispatch table: one entry per hot kernel. Entries a backend does not
/// accelerate point at the scalar reference implementation.
struct KernelTable {
  void (*phasor_ramp_soa)(double step, std::size_t n, double* dst_re,
                          double* dst_im) = nullptr;
  void (*phasor_ramp_interleaved)(double step, std::size_t n,
                                  cplx* dst) = nullptr;
  cplx (*cdot)(const cplx* a, const cplx* b, std::size_t n) = nullptr;
  cplx (*dot_phasor_ramp)(double step, const cplx* w,
                          std::size_t n) = nullptr;
  void (*axpy)(cplx alpha, const cplx* x, cplx* y, std::size_t n) = nullptr;
  void (*axpy_phasor_ramp)(cplx alpha, double step, cplx* y,
                           std::size_t n) = nullptr;
  void (*accumulate_delay_phasors)(cplx alpha, const double* freqs,
                                   double delay_s, cplx* dst,
                                   std::size_t n) = nullptr;
  void (*box_muller)(const double* uniforms, std::size_t pairs,
                     double* normals) = nullptr;
  void (*impair_csi)(const cplx* truth, const cplx* noise, double phase0,
                     double slope, std::size_t n, cplx* out) = nullptr;
  void (*sinc_column)(double ts, double bandwidth, double tau, std::size_t n,
                      double* out) = nullptr;
};

/// Relative/absolute error bound of one kernel vs the scalar reference: a
/// result is in contract when it is within `max_ulp` ULPs of the
/// reference OR within `abs_tol * scale` absolutely, where `scale` is the
/// natural magnitude of the computation (sum of |term| for reductions,
/// 1.0 for unit phasors). The OR arm exists because ULP distance diverges
/// near cancellation-induced zeros even when the absolute error is ~eps.
struct Tolerance {
  std::uint64_t max_ulp = 0;
  double abs_tol = 0.0;
};

/// Declared per-kernel accuracy contract of a backend (the table enforced
/// by the backend-sweeping differential tier and printed in DESIGN.md).
struct KernelTolerances {
  Tolerance phasor_ramp;
  Tolerance dot;              ///< cdot and dot_phasor_ramp
  Tolerance axpy;             ///< axpy and axpy_phasor_ramp
  Tolerance delay_phasors;
  Tolerance box_muller;       ///< per normal, scale r = sqrt(-2 ln u1)
  Tolerance impair_csi;       ///< per component, scale |truth + noise|
  Tolerance sinc_column;      ///< per tap, scale 1
};

/// Backends compiled into this binary, in dispatch-priority order
/// (fastest first). kScalar and kPortable are always present.
std::vector<Backend> compiled_backends();

/// True when the running CPU can execute `backend` (and it is compiled
/// in). kScalar/kPortable are always supported.
bool backend_supported(Backend backend);

/// The backend the automatic startup selection would pick on this
/// machine: the highest-priority supported backend.
Backend best_backend();

/// Currently active backend.
Backend active_backend();

/// Force `backend`; returns false (and leaves the active backend
/// unchanged) when it is not compiled in or not executable on this CPU.
bool set_backend(Backend backend);

/// Active dispatch table (always non-null entries).
const KernelTable& active_table();

/// Canonical lower-case name ("scalar", "portable", "avx2", "neon").
std::string_view backend_name(Backend backend);

/// Parse a backend name (or "auto" -> best_backend()); nullopt on
/// unknown names.
std::optional<Backend> parse_backend(std::string_view name);

/// Declared accuracy contract of `backend` (all-zero for kScalar).
KernelTolerances tolerances(Backend backend);

/// RAII backend override for tests: restores the previous backend on
/// destruction. `ok()` reports whether the switch took effect.
class ScopedBackend {
 public:
  explicit ScopedBackend(Backend backend)
      : previous_(active_backend()), ok_(set_backend(backend)) {}
  ~ScopedBackend() { set_backend(previous_); }
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;
  bool ok() const { return ok_; }

 private:
  Backend previous_;
  bool ok_;
};

namespace detail {
/// Per-backend kernel tables, defined in their backend_*.cpp TUs.
/// Null table => backend not compiled into this binary.
const KernelTable* scalar_table();
const KernelTable* portable_table();
const KernelTable* avx2_table();    // non-null on x86-64 builds
const KernelTable* neon_table();    // non-null on aarch64 builds
}  // namespace detail

}  // namespace mmr::dsp
