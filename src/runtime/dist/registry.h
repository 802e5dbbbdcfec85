// Named sweep-body registry for the distributed runtime.
//
// A worker subprocess cannot receive a std::function over a pipe, so
// distributable campaigns register a *named factory*: given the params
// string the coordinator sent in kStart (and the grid shape), the
// factory builds the exact task body the coordinator would run
// in-process. Determinism across the process boundary follows from the
// construction: both sides build the body from the identical
// (name, params, grid) triple, and a task's payload is a pure function
// of (body, point, trial).
//
// Registration is explicit (benches and tools/sweep_worker call
// sim::RegisterDistBodies() at the top of main) rather than via static
// initializers, so the set of served bodies is visible at every entry
// point and link order cannot change behavior.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/recovery.h"
#include "runtime/sweep_engine.h"

namespace freerider::runtime::dist {

/// One task body: (point, trial) → serialized result payload.
/// Side-effect free — folding payloads into caller state is the
/// restore callback's job, on the coordinator only.
using DistBody = TaskBody;

/// Builds a body from the wire params. Returns an empty function when
/// the params are malformed or the grid shape is not one this body
/// serves (the worker then StartAck-fails and the coordinator
/// degrades instead of computing garbage).
using DistBodyFactory =
    std::function<DistBody(const std::string& params, const SweepGrid& grid)>;

/// Register (or replace) a factory under `name`.
void RegisterDistBody(std::string_view name, DistBodyFactory factory);

/// Look up a factory; empty function if unknown.
DistBodyFactory FindDistBody(std::string_view name);

/// Registered names, sorted (diagnostics).
std::vector<std::string> RegisteredDistBodies();

}  // namespace freerider::runtime::dist
