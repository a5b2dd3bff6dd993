#ifndef DMTL_COMMON_FAULT_INJECTOR_H_
#define DMTL_COMMON_FAULT_INJECTOR_H_

#include <cstdint>
#include <string>

#include "src/common/status.h"

namespace dmtl {

// Deterministic fault injection for robustness tests. The injector is
// compiled in always and is a no-op by default: an unarmed process pays one
// relaxed atomic load per instrumented site. Tests arm a named site to fail
// exactly on the k-th hit after arming (one-shot — later hits succeed
// again, which is what lets retry paths be exercised), then assert that the
// failure surfaces as a clean Status with no crash, deadlock, or torn
// database.
//
// Site catalogue (see docs/robustness.md):
//   "seminaive.round"     - start of every fixpoint round (Materialize)
//   "thread_pool.task"    - before each ParallelFor task body
//   "database.insert_set" - inside Database::InsertSet (throw-only path)
//
// All methods are thread-safe (fleet workers fire sites concurrently).
// State is global; tests must Reset() when done.
class FaultInjector {
 public:
  // Arms `site` to make Fire() return `status` on the k-th hit (1-based)
  // counted from this call. Re-arming a site resets its count.
  static void Arm(const std::string& site, uint64_t hit, Status status);

  // Arms `site` to throw std::runtime_error(what) on the k-th hit instead.
  // Use for sites on paths that cannot return a Status (storage inserts);
  // Fire() at a throw-armed site also throws.
  static void ArmThrow(const std::string& site, uint64_t hit,
                       const std::string& what);

  // Disarms every site and clears all hit counts.
  static void Reset();

  // Hits recorded at `site` since it was last armed (0 if never armed;
  // unarmed sites do not count hits).
  static uint64_t HitCount(const std::string& site);

  // Called by instrumented code. Returns Ok unless `site` is armed and this
  // is its k-th hit, in which case it delivers the armed failure.
  static Status Fire(const char* site);

  // Variant for non-Status call sites: delivers the armed failure by
  // throwing (a Status-armed site throws runtime_error(status.ToString())).
  static void MaybeThrow(const char* site);
};

}  // namespace dmtl

#endif  // DMTL_COMMON_FAULT_INJECTOR_H_
