// Umbrella header: the FreeRider public API in one include.
//
//   #include "freerider.h"
//
// Layers (see DESIGN.md for the full inventory):
//   common/   value types, bits, CRCs, RNG, statistics
//   dsp/      FFT, filters, mixers, spectra
//   channel/  link budgets, AWGN, multipath, deployments
//   phy*/     the four commodity PHYs (802.11a/g, 802.11b, 802.15.4, BLE)
//   tag/      the tag's RF hardware model and power budget
//   impair/   seeded fault injection (CFO/drift, bursts, dropouts)
//   core/     codeword translation and tag-data decoding (the paper)
//   mac/      PLM downlink, tag controller FSM, Aloha/TDM coordination
//   sim/      end-to-end link and multi-tag campaign simulators
#pragma once

#include "channel/awgn.h"
#include "channel/deployment.h"
#include "channel/link_budget.h"
#include "channel/multipath.h"
#include "common/bits.h"
#include "common/crc.h"
#include "common/ring_buffer.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"
#include "common/units.h"
#include "core/hitchhike.h"
#include "core/quaternary.h"
#include "core/redundancy.h"
#include "core/tag_frame.h"
#include "core/translator.h"
#include "core/xor_decoder.h"
#include "dsp/fft.h"
#include "dsp/fir.h"
#include "dsp/signal_ops.h"
#include "dsp/spectrum.h"
#include "impair/impair.h"
#include "mac/ambient_traffic.h"
#include "mac/coexistence.h"
#include "mac/plm.h"
#include "mac/repacketizer.h"
#include "mac/slotted_aloha.h"
#include "mac/tag_mac.h"
#include "mac/tdm.h"
#include "phy80211/params.h"
#include "phy80211/receiver.h"
#include "phy80211/transmitter.h"
#include "phy80211b/frame11b.h"
#include "phy802154/frame.h"
#include "phyble/frame.h"
#include "sim/link.h"
#include "sim/multitag.h"
#include "sim/sweep.h"
#include "tag/envelope_detector.h"
#include "tag/harvester.h"
#include "tag/power_model.h"
#include "tag/rf_frontend.h"

namespace freerider {

/// Library version.
inline constexpr int kVersionMajor = 1;
inline constexpr int kVersionMinor = 0;

}  // namespace freerider
