#include "sim/campaign_audit.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <utility>

#include "transport/arq.h"

namespace freerider::sim {

std::string Fmt(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list measure;
  va_copy(measure, args);
  const int size = std::vsnprintf(nullptr, 0, format, measure);
  va_end(measure);
  std::string out(size > 0 ? static_cast<std::size_t>(size) : 0, '\0');
  std::vsnprintf(out.data(), out.size() + 1, format, args);
  va_end(args);
  return out;
}

// ------------------------------------------------------ ViolationLog

void ViolationLog::Add(std::size_t round, std::string kind,
                       std::string detail) {
  ++total_;
  if (records_.size() < cap_) {
    records_.push_back({round, std::move(kind), std::move(detail)});
  }
}

std::string ViolationLog::Digest() const {
  std::string out;
  for (const CampaignViolation& v : records_) {
    out += Fmt("violation round=%zu kind=%s %s\n", v.round, v.kind.c_str(),
               v.detail.c_str());
  }
  return out;
}

void ViolationLog::Write(runtime::PayloadWriter& w) const {
  ViolationLogFields(w, *this);
}

bool ViolationLog::Read(runtime::PayloadReader& r) {
  ViolationLog log(cap_);
  if (!ViolationLogFields(r, log)) return false;
  *this = std::move(log);
  return true;
}

// ---------------------------------------------------------- SeqAudit

SeqAudit::SeqAudit(std::size_t num_tags, bool skips_violate)
    : streams_(num_tags), skips_violate_(skips_violate) {}

void SeqAudit::Observe(std::size_t round, const RoundReport& report,
                       const std::vector<std::size_t>& resyncs,
                       ViolationLog& log, const DeliveryHook& on_delivery) {
  for (std::size_t t = 0; t < streams_.size(); ++t) {
    if (resyncs[t] != streams_[t].resyncs_seen) {
      streams_[t].resyncs_seen = resyncs[t];
      streams_[t].anchored = false;
    }
  }

  // At most one hole skip per tag per round. A skip advances the stream
  // exactly like a delivery, and the flush it unblocks lands in
  // report.delivered *after* it in sequence space.
  std::vector<std::optional<std::uint8_t>> skip(streams_.size());
  for (const RoundReport::Delivery& s : report.skipped) {
    skip[s.tag_id - 1] = s.seq;
  }
  // Every hole skip that advances a stream is consumed here, whichever
  // loop reaches it.
  auto consume_skip = [&](std::size_t t) {
    Stream& st = streams_[t];
    if (!skip[t].has_value() ||
        *skip[t] != static_cast<std::uint8_t>(st.position)) {
      return false;
    }
    if (skips_violate_) {
      log.Add(round, "skip", Fmt("tag=%zu seq=%u", t + 1, *skip[t]));
    }
    skip[t].reset();
    ++st.position;
    ++st.skipped;
    return true;
  };

  for (const RoundReport::Delivery& d : report.delivered) {
    if (on_delivery) on_delivery(d);
    const std::size_t t = d.tag_id - 1;
    Stream& st = streams_[t];
    if (!st.anchored) {
      // A skip releases the frames it unblocked in the same round, so a
      // stream whose first delivery is that flush starts at the skip.
      const bool flush = skip[t].has_value() &&
                         static_cast<std::uint8_t>(*skip[t] + 1) == d.seq;
      st.anchored = true;
      st.position = flush ? *skip[t] : d.seq;
    }
    if (d.seq != static_cast<std::uint8_t>(st.position)) {
      // The expected sequence may have been skipped this round; the
      // post-skip flush is then in order again.
      consume_skip(t);
    }
    const std::uint8_t expected = static_cast<std::uint8_t>(st.position);
    if (d.seq == expected) {
      ++st.position;
      ++st.delivered;
      continue;
    }
    const bool behind = transport::SeqDistance(d.seq, expected) < 128;
    log.Add(round, behind ? "duplicate" : "reorder",
            Fmt("tag=%u seq=%u expected=%u", d.tag_id, d.seq, expected));
  }
  for (std::size_t t = 0; t < streams_.size(); ++t) {
    if (!skip[t].has_value()) continue;
    Stream& st = streams_[t];
    if (!st.anchored) {
      // A skip before any delivery anchors the stream at it.
      st.anchored = true;
      st.position = *skip[t];
    }
    const std::uint8_t expected = static_cast<std::uint8_t>(st.position);
    const std::uint8_t seq = *skip[t];
    if (!consume_skip(t)) {
      log.Add(round, "skip-out-of-order",
              Fmt("tag=%zu seq=%u expected=%u", t + 1, seq, expected));
    }
  }
}

std::vector<std::size_t> ResyncCounts(const FullStackSim& sim,
                                      std::size_t num_tags) {
  std::vector<std::size_t> counts(num_tags);
  for (std::size_t t = 0; t < num_tags; ++t) {
    counts[t] = sim.coordinator_transport()->rx(t).stats().resyncs;
  }
  return counts;
}

// ----------------------------------------------------- CampaignTrace

CampaignTrace::CampaignTrace(const char* name, std::size_t capacity)
    : name_(name), enabled_(capacity > 0), ring_(capacity > 0 ? capacity : 1) {}

std::string CampaignTrace::Finish() const {
  // Never drawn from, never on by default.
  if (std::getenv("FREERIDER_CAMPAIGN_DEBUG") != nullptr) {
    std::fprintf(stderr, "%s", obs::TraceToJsonl(name_, ring_).c_str());
  }
  return enabled_ ? obs::SerializeTrace(name_, ring_) : std::string();
}

}  // namespace freerider::sim
