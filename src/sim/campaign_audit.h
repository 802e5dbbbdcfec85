// The audit every full-stack campaign (sim/stress, sim/adversarial,
// sim/soak) runs against the transport, and the record it keeps.
//
//   * SeqAudit owns the sequence rule: per tag, transport deliveries
//     and explicit hole skips advance the sequence space strictly
//     forward. Anything else is a duplicate, a reorder or an
//     out-of-order skip. It is the single implementation of that rule.
//   * ViolationLog is the one violation record: the drivers' own
//     arm-specific audits log into it too. It renders the digest's
//     "violation ..." lines, and ViolationLogFields is its field list
//     inside every campaign result's checkpoint payload.
//   * CampaignTrace is the flight recorder a stress or adversarial
//     campaign carries.
//   * CampaignConfig holds the knobs the stress and adversarial
//     configs share.
//
// Each driver keeps its own round loop and its own end-of-run audits;
// this module holds only what all of them share.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "runtime/checkpoint.h"
#include "sim/multitag.h"

namespace freerider::sim {

/// The schedule, transport, supervisor, dynamics and recorder knobs of a
/// stress (sim/stress) or adversarial (sim/adversarial) campaign. Each
/// driver's config adds its own A/B knob; the drivers force
/// `transport.enabled` and `supervisor.enabled`.
struct CampaignConfig {
  std::uint64_t seed = 1;
  std::size_t num_tags = 6;
  /// Rounds with offered load.
  std::size_t rounds = 600;
  /// Extra rounds with no new offers so in-flight frames can finish.
  std::size_t drain_rounds = 150;
  /// Enqueue one frame per tag every this many rounds (1 = every round).
  std::size_t offer_every = 2;
  transport::TransportConfig transport;
  health::SupervisorConfig supervisor;
  /// The time-varying honest channel.
  impair::DynamicsConfig dynamics;
  /// Flight-recorder ring capacity for the campaign (0 disables
  /// tracing entirely; the sim then takes the legacy no-trace path).
  /// The recorder keeps the newest `trace_capacity` events in virtual
  /// (round, slot) time — bounded memory however long the campaign.
  std::size_t trace_capacity = obs::TraceRing::kDefaultCapacity;
};

/// printf into a std::string.
std::string Fmt(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

struct CampaignViolation {
  std::size_t round = 0;
  std::string kind;    ///< duplicate | reorder | skip | expired | ...
  std::string detail;  ///< Human-readable specifics (tag, seq, ...).
};

/// Violations in the order they were found. A capped log keeps only the
/// first `cap` records verbatim but keeps counting past the cap.
class ViolationLog {
 public:
  static constexpr std::size_t kUncapped = static_cast<std::size_t>(-1);

  ViolationLog() = default;
  explicit ViolationLog(std::size_t cap) : cap_(cap) {}

  void Add(std::size_t round, std::string kind, std::string detail);

  const std::vector<CampaignViolation>& records() const { return records_; }
  /// Every violation logged, recorded or not. An uncapped log records
  /// them all.
  std::size_t total() const {
    return cap_ == kUncapped ? records_.size() : total_;
  }
  bool empty() const { return total() == 0; }

  /// One "violation round=R kind=K DETAIL" line per record: the prefix
  /// of every campaign digest.
  std::string Digest() const;

  /// ViolationLogFields on its own. A failed Read leaves the log as it
  /// was.
  void Write(runtime::PayloadWriter& w) const;
  bool Read(runtime::PayloadReader& r);

 private:
  template <class Io, class Log>
  friend bool ViolationLogFields(Io& io, Log& log);

  std::size_t cap_ = kUncapped;
  std::vector<CampaignViolation> records_;
  std::size_t total_ = 0;  ///< Used only by a capped log.
};

/// The log's checkpoint field list (runtime/checkpoint.h): the record
/// count and records, then the running total for a capped log, which
/// counts every record it kept. Log is const when writing.
template <class Io, class Log>
bool ViolationLogFields(Io& io, Log& log) {
  const bool capped = log.cap_ != ViolationLog::kUncapped;
  const std::size_t max_records = capped ? log.cap_ : std::size_t{1} << 24;
  return io.Seq(log.records_, max_records,
                [&io](auto& v) {
                  return io.Size(v.round) && io.Str(v.kind) &&
                         io.Str(v.detail);
                }) &&
         (!capped ||
          (io.Size(log.total_) && log.total_ >= log.records_.size()));
}

/// Per-tag sequence-space auditor. Positions are 64-bit, so a tracker
/// never aliases across 8-bit wraps; the low 8 bits of a position are
/// the next expected on-air sequence number.
class SeqAudit {
 public:
  struct Stream {
    bool anchored = false;
    std::uint64_t position = 0;
    std::uint64_t delivered = 0;  ///< In-order deliveries consumed.
    std::uint64_t skipped = 0;    ///< Hole skips consumed.
    std::size_t resyncs_seen = 0;
  };

  using DeliveryHook = std::function<void(const RoundReport::Delivery&)>;

  /// A stream anchors on its first delivery or skip. `skips_violate`:
  /// a consumed hole skip is itself logged as a "skip" violation
  /// (strict soak).
  SeqAudit(std::size_t num_tags, bool skips_violate);

  /// Audit one round. `resyncs` holds each tag's stream resync count
  /// (ResyncCounts): a change re-anchors that tag's stream, because the
  /// transport deliberately forgot its old delivery point. `on_delivery`
  /// (optional) sees every delivery before it is audited, so what it
  /// logs interleaves with the audit's own violations.
  void Observe(std::size_t round, const RoundReport& report,
               const std::vector<std::size_t>& resyncs, ViolationLog& log,
               const DeliveryHook& on_delivery = {});

  const Stream& stream(std::size_t tag) const { return streams_[tag]; }

 private:
  std::vector<Stream> streams_;
  bool skips_violate_;
};

/// Each tag's coordinator-side stream resync count, for SeqAudit.
std::vector<std::size_t> ResyncCounts(const FullStackSim& sim,
                                      std::size_t num_tags);

/// The flight recorder of a stress or adversarial campaign: the newest
/// `capacity` events in virtual (round, slot) time. Capacity 0 turns
/// tracing off, and the sim then takes its no-trace path.
class CampaignTrace {
 public:
  CampaignTrace(const char* name, std::size_t capacity);
  // The sim holds a pointer to the ring.
  CampaignTrace(const CampaignTrace&) = delete;
  CampaignTrace& operator=(const CampaignTrace&) = delete;

  /// The FullStackConfig::trace sink; null when tracing is off.
  obs::TraceRing* sink() { return enabled_ ? &ring_ : nullptr; }

  /// End of the campaign. Triage aid (docs/observability.md): with
  /// FREERIDER_CAMPAIGN_DEBUG set, dumps the ring as JSONL to stderr,
  /// the same event stream tools/trace_dump reads from an exported
  /// campaign. Returns the serialized ring (obs::SerializeTrace) for
  /// the result's checkpoint payload, or "" when tracing is off.
  std::string Finish() const;

 private:
  const char* name_;
  bool enabled_;
  obs::TraceRing ring_;
};

}  // namespace freerider::sim
