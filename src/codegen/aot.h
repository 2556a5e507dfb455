// The AOT backend: emits C++ translation units specializing successor
// generation for ONE machine, compiles them with the host toolchain into one
// shared object, dlopens it, and adapts it to the Engine interface.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "codegen/engine.h"

namespace pnp::codegen {

/// Generates the specialized C++ source for `m` as standalone translation
/// units, embedding `digest` as the module's source_digest: unit 0 holds
/// the entry point and dispatch code, and the per-process expand functions
/// are spread over min(max_units, processes) units (at least one) by
/// emitted size, so they can be compiled in parallel and linked into one
/// .so. Returns no units when the machine uses a construct the emitter
/// does not specialize (currently: channel-id expressions that do not fold
/// to constants), with the reason in `*why`. Exposed for tests; production
/// callers go through make_aot_engine.
std::vector<std::string> emit_aot_units(const kernel::Machine& m,
                                        const std::string& digest,
                                        int max_units, std::string* why);

/// Builds the AOT engine: emit + compile (content-addressed cache under
/// opt.cache_dir; the units compile concurrently, one compiler process per
/// hardware thread) + dlopen + validate. Returns nullptr with a one-line
/// reason in `*why` when anything along that path is unavailable or fails;
/// the caller (make_engine) decides whether that means fallback or error.
/// Bumps CodegenCompiles / CodegenCacheHits on opt.obs.
std::unique_ptr<Engine> make_aot_engine(const kernel::Machine& m,
                                        const EngineOptions& opt,
                                        std::string* why);

/// Human-readable backend diagnostic (`pnpv --engine list`): the available
/// backends, the AOT toolchain probe (the compiler make_aot_engine would
/// invoke, and whether it runs), the resolved artifact-cache directory for
/// `cache_dir` (empty = the shared temp-dir default), how many units a
/// build compiles at once, and the ABI/emitter versions that key the
/// artifact cache.
std::string describe_engines(const std::string& cache_dir);

}  // namespace pnp::codegen
