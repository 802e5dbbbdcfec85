// Golden framing test: every [u32 len][payload][u32 crc32] byte stream
// the repo writes (campaign checkpoints, TRACE .bin files, the
// distributed sweep's pipe frames) and every outcome of decoding it.
//
// Each case pins two 64-bit FNV-1a hashes: one of a fixed encoded image,
// and one of the decoder's full outcome at every truncation offset and
// every single-bit flip of that image (ok / salvaged / frames kept /
// dropped bytes / decoded records and rings / the FrameStream
// status sequence). A change to the frame writer, the frame parser, its
// payload cap or any salvage rule therefore fails here by stream name,
// and an unchanged hash is the proof that a refactor of the framing kept
// both the bytes and the salvage behaviour identical.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"
#include "runtime/checkpoint.h"
#include "runtime/dist/wire.h"

namespace freerider {
namespace {

class Fnv {
 public:
  void Bytes(std::string_view s) {
    for (char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001B3ull;
    }
  }
  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ull;
    }
  }
  void Str(std::string_view s) {
    U64(s.size());
    Bytes(s);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

std::uint64_t HashBytes(std::string_view bytes) {
  Fnv h;
  h.Bytes(bytes);
  return h.value();
}

std::string Hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llxull",
                static_cast<unsigned long long>(v));
  return buf;
}

// Folds `fold(h, bytes)` over every prefix of `image` (lengths 0..size)
// and then over every single-bit flip of the whole image.
template <typename Fold>
std::uint64_t HashOutcomes(std::string_view image, Fold fold) {
  Fnv h;
  for (std::size_t cut = 0; cut <= image.size(); ++cut) {
    h.U64(cut);
    fold(h, image.substr(0, cut));
  }
  std::string mutated(image);
  for (std::size_t i = 0; i < mutated.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      mutated[i] = static_cast<char>(mutated[i] ^ (1 << bit));
      h.U64(i * 8 + static_cast<std::size_t>(bit));
      fold(h, mutated);
      mutated[i] = static_cast<char>(mutated[i] ^ (1 << bit));
    }
  }
  return h.value();
}

// ------------------------------------------------------------ checkpoint

std::string CheckpointImage() {
  runtime::CheckpointHeader header;
  header.campaign = runtime::CampaignId("golden", 7);
  header.points = 3;
  header.trials = 2;
  runtime::PayloadWriter w;
  w.U64(42);
  w.F64(-0.125);
  w.Str("a b:c");
  std::vector<runtime::TaskRecord> records;
  records.push_back({0, runtime::TaskState::kDone, w.str()});
  records.push_back({3, runtime::TaskState::kQuarantined, ""});
  records.push_back({0, runtime::TaskState::kDone, "dup"});
  records.push_back(
      {5, runtime::TaskState::kDone, std::string("\0\xFF\x01 z", 5)});
  return runtime::EncodeCheckpoint(header, records);
}

void FoldCheckpoint(Fnv& h, std::string_view bytes) {
  const runtime::CheckpointDecodeResult r = runtime::DecodeCheckpoint(bytes);
  h.U64(r.ok);
  h.U64(r.salvaged);
  h.U64(r.frames_kept);
  h.U64(r.duplicates);
  h.U64(r.dropped_bytes);
  h.U64(r.header.version);
  h.U64(r.header.campaign);
  h.U64(r.header.points);
  h.U64(r.header.trials);
  h.Str(r.error);
  h.U64(r.records.size());
  for (const runtime::TaskRecord& rec : r.records) {
    h.U64(rec.index);
    h.U64(static_cast<std::uint64_t>(rec.state));
    h.Str(rec.payload);
  }
}

TEST(FrameGoldenTest, CheckpointImageAndSalvage) {
  const std::string image = CheckpointImage();
  const std::uint64_t bytes = HashBytes(image);
  const std::uint64_t outcomes = HashOutcomes(image, FoldCheckpoint);
  EXPECT_EQ(image.size(), 135u);
  EXPECT_EQ(bytes, 0x73c2f6828a9b0f60ull) << Hex(bytes);
  EXPECT_EQ(outcomes, 0xd4db8059324ea16aull) << Hex(outcomes);
}

// ----------------------------------------------------------------- trace

std::string TraceImage() {
  obs::TraceRing first(4);
  for (std::uint32_t i = 0; i < 6; ++i) {
    first.Record(static_cast<obs::EventKind>(1 + i % 3), 10 + i,
                 i == 2 ? obs::kNoSlot : static_cast<std::uint16_t>(i),
                 static_cast<std::uint8_t>(i), 0xFFFFFFFFFFull * i, i);
  }
  obs::TraceRing second(8);
  second.Record(obs::EventKind::kFrameRx, 0xFFFFFFFFu, 7, 255, ~0ull, 1);
  return obs::SerializeTrace("golden", first) +
         obs::SerializeTrace("", second);
}

void FoldTrace(Fnv& h, std::string_view bytes) {
  const obs::TraceDecodeResult r = obs::DecodeTraces(bytes);
  h.U64(r.ok);
  h.U64(r.salvaged);
  h.U64(r.dropped_bytes);
  h.Str(r.error);
  h.U64(r.traces.size());
  for (const obs::NamedTrace& t : r.traces) {
    h.Str(t.name);
    h.U64(t.ring.capacity());
    h.U64(t.ring.recorded());
    const std::vector<obs::TraceEvent> events = t.ring.Events();
    h.U64(events.size());
    for (const obs::TraceEvent& e : events) {
      h.U64(e.round);
      h.U64(e.slot);
      h.U64(static_cast<std::uint64_t>(e.kind));
      h.U64(e.tag);
      h.U64(e.a);
      h.U64(e.b);
    }
  }
}

TEST(FrameGoldenTest, TraceImageAndSalvage) {
  const std::string image = TraceImage();
  const std::uint64_t bytes = HashBytes(image);
  const std::uint64_t outcomes = HashOutcomes(image, FoldTrace);
  EXPECT_EQ(image.size(), 245u);
  EXPECT_EQ(bytes, 0x09463548b6518badull) << Hex(bytes);
  EXPECT_EQ(outcomes, 0xdcc3dc2b44caae14ull) << Hex(outcomes);
}

// ------------------------------------------------------------------ wire

std::string WireImage() {
  using runtime::dist::MsgType;
  std::vector<runtime::dist::WireMsg> msgs(6);
  msgs[0].type = MsgType::kStart;
  msgs[0].points = 8;
  msgs[0].trials = 3;
  msgs[0].body = "chaos_probe";
  msgs[0].params = "7:40";
  msgs[1].type = MsgType::kStartAck;
  msgs[1].error = "no such body";
  msgs[2].type = MsgType::kTask;
  msgs[2].index = 5;
  msgs[3].type = MsgType::kResult;
  msgs[3].index = 5;
  msgs[3].status = runtime::dist::ResultStatus::kThrew;
  msgs[3].payload = std::string("1 2:x \0\xFF", 8);
  msgs[4].type = MsgType::kHeartbeat;
  msgs[4].seq = 9;
  msgs[5].type = MsgType::kShutdown;
  std::string stream;
  for (const runtime::dist::WireMsg& m : msgs) {
    stream += runtime::dist::EncodeFrame(runtime::dist::EncodeMsg(m));
  }
  return stream;
}

void FoldFrame(Fnv& h, const std::string& payload) {
  h.Str(payload);
  runtime::dist::WireMsg m;
  const bool ok = runtime::dist::DecodeMsg(payload, &m);
  h.U64(ok);
  if (!ok) return;
  h.U64(static_cast<std::uint64_t>(m.type));
  h.U64(m.points);
  h.U64(m.trials);
  h.Str(m.body);
  h.Str(m.params);
  h.U64(m.ok);
  h.Str(m.error);
  h.U64(m.index);
  h.U64(static_cast<std::uint64_t>(m.status));
  h.Str(m.payload);
  h.U64(m.seq);
}

// The stream is decoded twice: fed whole, and fed one byte at a time
// with a Next() after every byte (the pipe reader's incremental path).
void FoldWire(Fnv& h, std::string_view bytes) {
  using runtime::dist::FrameStatus;
  std::string payload;
  {
    runtime::dist::FrameStream fs;
    fs.Feed(bytes);
    FrameStatus status;
    while ((status = fs.Next(&payload)) == FrameStatus::kFrame) {
      h.U64(static_cast<std::uint64_t>(status));
      FoldFrame(h, payload);
    }
    h.U64(static_cast<std::uint64_t>(status));
    h.U64(fs.corrupt());
    h.U64(fs.buffered());
  }
  runtime::dist::FrameStream fs;
  for (char c : bytes) {
    fs.Feed(&c, 1);
    FrameStatus status;
    while ((status = fs.Next(&payload)) == FrameStatus::kFrame) {
      h.U64(static_cast<std::uint64_t>(status));
      FoldFrame(h, payload);
    }
    h.U64(static_cast<std::uint64_t>(status));
  }
  h.U64(fs.corrupt());
  h.U64(fs.buffered());
}

TEST(FrameGoldenTest, WireStreamAndSalvage) {
  const std::string image = WireImage();
  const std::uint64_t bytes = HashBytes(image);
  const std::uint64_t outcomes = HashOutcomes(image, FoldWire);
  EXPECT_EQ(image.size(), 123u);
  EXPECT_EQ(bytes, 0xc4821827404e051dull) << Hex(bytes);
  EXPECT_EQ(outcomes, 0x4737be908cb2a19dull) << Hex(outcomes);
}

// ------------------------------------------------- CRC-valid but invalid

// A frame whose CRC checks but whose fields are impossible stops the
// salvage just like a torn one. The checkpoint decoder drops that frame
// with the tail; the trace decoder counts only the bytes after it.
TEST(FrameGoldenTest, SemanticallyInvalidFramesStopTheSalvage) {
  using runtime::dist::EncodeFrame;
  Fnv h;
  const std::string checkpoint = CheckpointImage();
  FoldCheckpoint(h, checkpoint + EncodeFrame(std::string(8, '\x7F') + "\x01") +
                        checkpoint);
  FoldCheckpoint(h, checkpoint + EncodeFrame("short") + checkpoint);
  FoldCheckpoint(h, EncodeFrame("not a header") + checkpoint);
  const std::string trace = TraceImage();
  FoldTrace(h, trace + EncodeFrame("X") + trace);
  FoldTrace(h, EncodeFrame("E") + trace);
  FoldTrace(h, trace + EncodeFrame("") + trace);
  FoldWire(h, EncodeFrame("99 ") + WireImage());
  EXPECT_EQ(h.value(), 0xbaf5c1d820cf3e07ull) << Hex(h.value());
}

}  // namespace
}  // namespace freerider
