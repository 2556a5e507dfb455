// The one definition of execution budgets. VerifyOptions, SuiteOptions (via
// its embedded VerifyOptions), ResilienceOptions, ltl::CheckOptions and
// Session's RunConfig all consume these fields from here instead of each
// re-declaring threads/max_states/deadline/memory; the option structs
// inherit ExecBudget, so the historical field names (`opt.threads`,
// `opt.max_states`, ...) keep working unchanged -- they are now the
// deprecated spellings of `opt` *as* an ExecBudget.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace pnp {

struct ExecBudget {
  /// Stored-state cap per exploration stage.
  std::uint64_t max_states = 20'000'000;
  /// Wall-clock budget per exploration stage; 0 = unlimited.
  double deadline_seconds = 0.0;
  /// Approximate memory cap per exploration stage; 0 = unlimited.
  std::uint64_t memory_budget_bytes = 0;
  /// Worker threads: 1 = sequential, 0 = hardware concurrency.
  int threads = 1;

  // -- durability (none of these can change a verdict, so none of them
  //    participate in config digests or cache keys) ------------------------

  /// Directory for mmap'd spill files. When set, an exact safety or LTL
  /// search near the memory budget moves its visited-key slabs and intern
  /// chunks to disk-backed storage and keeps going ("exact-spill",
  /// "ltl-product-spill") instead of truncating. Empty = never spill.
  std::string spill_dir;
  /// Directory for pnp.ckpt.v1 checkpoint snapshots. Empty = no
  /// checkpointing.
  std::string checkpoint_dir;
  /// Stored-state stride between periodic checkpoints; 0 with a
  /// checkpoint_dir set still writes a final checkpoint on interrupt,
  /// deadline, or truncation.
  std::uint64_t checkpoint_every = 0;
  /// Cooperative interrupt flag (SIGINT/SIGTERM in pnpv): when it becomes
  /// true the engines write a final checkpoint (if configured), stop, and
  /// report TruncationReason::Interrupted. Not owned; may be null.
  const std::atomic<bool>* interrupt = nullptr;
  /// Resume from the matching pnp.ckpt.v1 snapshot in checkpoint_dir when
  /// one exists (checksums and configuration digest are validated; a
  /// mismatch is a ModelError, never a silent fresh start). When no
  /// snapshot exists yet the run simply starts from scratch, so retry
  /// loops can pass --resume unconditionally.
  bool resume = false;
};

}  // namespace pnp
