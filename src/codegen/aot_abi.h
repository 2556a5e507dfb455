// C ABI between the host and a generated AOT successor module.
//
// The generated translation units are standalone -- they include nothing
// from this repository -- so these structs are duplicated as text inside
// the emitter (aot_emit.cpp, kAbiText). Any layout change here MUST be mirrored
// there and MUST bump kAotAbiVersion: the loader rejects modules whose
// abi_version does not match, so a stale cached .so degrades to a cache
// miss, never to a silent layout mismatch.
//
// Protocol (mirrors the interpreter's mutate-and-revert scratch discipline):
//   * `mem` points at the host scratch state vector, pre-loaded with the
//     source state; `src_atomic` holds the source state's atomic pid.
//   * Generated code mutates `mem` in place, logging (slot, previous value)
//     into `undo_slot`/`undo_val` (host-allocated, state_size + 8 entries
//     is always enough for one step), and sets `atomic_pid` to the
//     successor's holder.
//   * For each successor it calls `emit` ONCE with the step metadata; the
//     host snapshots the undo log, runs the search sink, and returns 0 to
//     abort generation. Generated code then reverts `mem` from the log and
//     restores `atomic_pid` before trying the next candidate.
//   * `trap` reports a model error (division by zero, invalid channel id);
//     it never returns (the host implementation throws, unwinding through
//     the generated frames, which hold no destructors).
#pragma once

#include <cstdint>

extern "C" {

struct pnp_aot_step {
  std::int32_t pid;
  std::int32_t trans;
  std::int32_t partner_pid;
  std::int32_t partner_trans;
  std::int32_t kind;  // StepEvent::Kind: 0 Local, 1 Send, 2 Recv, 3 Handshake
  std::int32_t chan;
  std::int32_t assert_failed;
  std::int32_t msg_len;
  const std::int32_t* msg;
};

struct pnp_aot_ctx {
  std::int32_t* mem;
  std::int32_t* undo_slot;
  std::int32_t* undo_val;
  std::int32_t undo_len;
  std::int32_t atomic_pid;
  std::int32_t src_atomic;
  // Candidates left to suppress: the generated code enumerates them (flags
  // and candidate indices stay exact) but skips their mutation + emit.
  std::int32_t skip;
  // Resume fast-forward (visit_all only). In: start_pid >= 0 starts the
  // process sweep there with `cand` pre-set to the candidates enumerated
  // before that process on the previous visit of the same state; -1 sweeps
  // everything. Out: stop_pid/pid_base record where the sink stopped the
  // visit (-1 when it ran to completion), forming the next visit's token.
  std::int32_t start_pid;
  std::int32_t stop_pid;
  std::int32_t cand;      // candidates enumerated so far (absolute)
  std::int32_t pid_base;  // cand at the current process's sweep start
  void* host;
  std::int32_t (*emit)(pnp_aot_ctx*, const pnp_aot_step*);
  void (*trap)(pnp_aot_ctx*, const char*);
};

// The module exports successor generation only; COLLAPSE compression of
// what it emits (dirty regions from the undo log, their hashes, interning)
// is host code, so no host hash function is replicated here.
struct pnp_aot_module_v1 {
  std::int32_t abi_version;
  std::int32_t state_size;
  const char* source_digest;
  // Return bitmask: bit 0 = at least one successor emitted, bit 1 = the
  // sink aborted generation.
  std::uint32_t (*visit_all)(pnp_aot_ctx*);
  std::uint32_t (*visit_of)(pnp_aot_ctx*, std::int32_t pid);
};

}  // extern "C"

namespace pnp::codegen {

inline constexpr std::int32_t kAotAbiVersion = 4;

/// Name of the module's single exported symbol.
inline constexpr const char* kAotEntrySymbol = "pnp_aot_module";

}  // namespace pnp::codegen
