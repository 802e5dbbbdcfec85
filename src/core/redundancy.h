// Redundancy ladders: the tag's rate steps.
//
// Tag throughput is 1/(N · T_codeword); reliability rises with N. The
// paper's stepped throughput-vs-distance curves (Figs. 10-13) come from
// the tag dropping to larger N as the link budget shrinks: for each
// link, `sim::SimulateTagLinkAdaptive` probes every rung of the radio's
// ladder and runs at the one with the best tag goodput (the largest N
// if no rung decodes).
#pragma once

#include <cstddef>
#include <span>

#include "core/translator.h"

namespace freerider::core {

/// The redundancy ladder per radio (smallest = fastest).
std::span<const std::size_t> RedundancyLadder(RadioType radio);

}  // namespace freerider::core
