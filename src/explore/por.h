// Partial-order reduction: conservative ample-set computation.
//
// A process is an ample candidate in a state when every transition it can
// take there is `local_only` (touches neither globals nor channels, so it
// is both invisible to properties and independent of every other process's
// transitions). The cycle proviso (C3) is enforced by rejecting candidates
// with a successor already on the DFS stack.
//
// Both entry points generate through a codegen::Engine. The engine
// equivalence contract (byte-identical successor streams and Step fields,
// engine.h) makes the ample decision a pure function of the state under
// every engine -- the probe is a conjunction over the streamed successors,
// so identical streams give identical ample sets.
#pragma once

#include <cstdint>
#include <functional>

#include "kernel/machine.h"

namespace pnp::codegen {
class Engine;
}

namespace pnp::explore {

using OnStackFn = std::function<bool(const kernel::State&)>;

/// Decides the ample set for `s`: the pid of an ample process, or -1 for
/// full expansion. `on_stack` implements the cycle proviso (C3); pass
/// nullptr to skip it (BFS, where C3 is not needed for safety-only checking
/// of our invisible-transition ample sets). The decision is a function of
/// (state, stack) and must be recorded by the caller so that regenerating a
/// frame's successors reproduces the exact same list. Candidates are probed
/// by mutate-and-revert in `scratch` (no state copies).
int por_choose(const codegen::Engine& engine, const kernel::State& s,
               const OnStackFn* on_stack, kernel::SuccScratch& scratch);

/// Streams the successors of `s` per a recorded choice (-1 = all processes,
/// otherwise only that pid's) into `sink`, passing the pass-based DFS's
/// `skip` and `resume` token through to the engine (engine.h); a chosen
/// pid's sweep takes no token.
void por_visit(const codegen::Engine& engine, const kernel::State& s,
               int choice, kernel::SuccScratch& scratch,
               kernel::SuccSink& sink, std::uint32_t skip = 0,
               std::uint64_t* resume = nullptr);

}  // namespace pnp::explore
