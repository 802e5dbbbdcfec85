#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "common/bits.h"
#include "common/cli.h"
#include "common/crc.h"
#include "common/json.h"
#include "common/ring_buffer.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/units.h"

namespace freerider {
namespace {

// ---------------------------------------------------------------- bits

TEST(Bits, BytesToBitsLsbFirst) {
  const Bytes bytes = {0x01, 0x80, 0xA5};
  const BitVector bits = BytesToBits(bytes);
  ASSERT_EQ(bits.size(), 24u);
  EXPECT_EQ(BitsToString(bits), "100000000000000110100101");
}

TEST(Bits, RoundTripBytesBits) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const Bytes original = RandomBytes(rng, 1 + trial * 7);
    EXPECT_EQ(BitsToBytes(BytesToBits(original)), original);
  }
}

TEST(Bits, BitsToBytesPadsPartialByte) {
  const BitVector bits = BitsFromString("101");
  const Bytes bytes = BitsToBytes(bits);
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0x05);
}

TEST(Bits, BitsToBytesSetsABitForAnyNonzeroInput) {
  // The per-bit branch it replaced set bit i whenever bits[i] != 0; the
  // branchless form must agree on any byte values, not just 0 and 1.
  Rng rng(5);
  for (std::size_t n = 0; n <= 70; ++n) {
    BitVector bits(n);
    for (auto& b : bits) {
      const std::uint64_t pick = rng.NextBelow(4);
      b = pick == 0 ? 0 : pick == 1 ? 1 : pick == 2 ? 2 : 255;
    }
    Bytes want((n + 7) / 8, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (bits[i]) want[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
    }
    Bytes got{0xAB, 0xCD};  // stale contents must not leak
    BitsToBytesInto(bits, got);
    EXPECT_EQ(got, want) << n;
  }
}

TEST(Bits, BitsFromStringSkipsNoise) {
  EXPECT_EQ(BitsFromString("10 1_1"), BitsFromString("1011"));
}

TEST(Bits, HammingDistance) {
  const BitVector a = BitsFromString("10101");
  const BitVector b = BitsFromString("10011");
  EXPECT_EQ(HammingDistance(a, b), 2u);
  EXPECT_EQ(HammingDistance(a, a), 0u);
}

TEST(Bits, XorBits) {
  const BitVector a = BitsFromString("1100");
  const BitVector b = BitsFromString("1010");
  EXPECT_EQ(BitsToString(XorBits(a, b)), "0110");
}

TEST(Bits, XorSelfInverse) {
  Rng rng(2);
  const BitVector a = RandomBits(rng, 100);
  const BitVector b = RandomBits(rng, 100);
  EXPECT_EQ(XorBits(XorBits(a, b), b), a);
}

TEST(Bits, RepeatBits) {
  EXPECT_EQ(BitsToString(RepeatBits(BitsFromString("10"), 3)), "111000");
}

TEST(Bits, BitErrorRateEmptyIsOne) {
  EXPECT_DOUBLE_EQ(BitErrorRate({}, {}), 1.0);
}

TEST(Bits, BitErrorRateCounts) {
  const BitVector a = BitsFromString("1111");
  const BitVector b = BitsFromString("1010");
  EXPECT_DOUBLE_EQ(BitErrorRate(a, b), 0.5);
}

// ----------------------------------------------------------------- crc

TEST(Crc, Crc32KnownVector) {
  // CRC-32 of "123456789" is 0xCBF43926 (classic check value).
  const Bytes data = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32(data), 0xCBF43926u);
}

TEST(Crc, Crc32DetectsSingleBitFlip) {
  Rng rng(3);
  Bytes data = RandomBytes(rng, 64);
  const std::uint32_t original = Crc32(data);
  data[10] ^= 0x04;
  EXPECT_NE(Crc32(data), original);
}

TEST(Crc, Crc16CcittStable) {
  const Bytes data = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  // X.25-family reflected CRC-16 with init 0: check value 0x6E90 for
  // KERMIT variant. We assert self-consistency + error detection.
  const std::uint16_t c = Crc16Ccitt(data);
  Bytes mutated = data;
  mutated[0] ^= 1;
  EXPECT_NE(Crc16Ccitt(mutated), c);
}

TEST(Crc, Crc24DetectsErrors) {
  Rng rng(4);
  BitVector bits = RandomBits(rng, 128);
  const std::uint32_t c = Crc24Ble(bits);
  EXPECT_LT(c, 1u << 24);
  bits[77] ^= 1;
  EXPECT_NE(Crc24Ble(bits), c);
}

// ----------------------------------------------------------------- rng

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextBit() == b.NextBit());
  EXPECT_LT(same, 55);
  EXPECT_GT(same, 9);
}

TEST(Rng, UniformMean) {
  Rng rng(5);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(rng.NextDouble());
  EXPECT_NEAR(stats.mean(), 0.5, 0.02);
}

TEST(Rng, GaussianMoments) {
  Rng rng(6);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.NextGaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.03);
  EXPECT_NEAR(stats.variance(), 1.0, 0.05);
}

TEST(Rng, ComplexGaussianUnitPower) {
  Rng rng(7);
  double power = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) power += std::norm(rng.NextComplexGaussian());
  EXPECT_NEAR(power / n, 1.0, 0.05);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.NextBelow(17), 17u);
}

// ---------------------------------------------------------- ring buffer

TEST(RingBuffer, PushAndRead) {
  RingBuffer<int> rb(3);
  rb.Push(1);
  rb.Push(2);
  EXPECT_EQ(rb.size(), 2u);
  EXPECT_EQ(rb.At(0), 1);
  EXPECT_EQ(rb.FromNewest(0), 2);
}

TEST(RingBuffer, EvictsOldest) {
  RingBuffer<int> rb(3);
  for (int i = 1; i <= 5; ++i) rb.Push(i);
  EXPECT_TRUE(rb.full());
  EXPECT_EQ(rb.At(0), 3);
  EXPECT_EQ(rb.FromNewest(0), 5);
}

TEST(RingBuffer, EndsWithMatchesPreamble) {
  RingBuffer<int> rb(8);
  for (int v : {9, 9, 1, 0, 1, 1}) rb.Push(v);
  EXPECT_TRUE(rb.EndsWith({1, 0, 1, 1}));
  EXPECT_FALSE(rb.EndsWith({0, 0, 1, 1}));
  EXPECT_FALSE(rb.EndsWith({9, 9, 9, 9, 9, 9, 9, 9, 9}));  // longer than size
}

TEST(RingBuffer, ThrowsOnBadAccess) {
  RingBuffer<int> rb(2);
  rb.Push(1);
  EXPECT_THROW(rb.At(1), std::out_of_range);
  EXPECT_THROW(rb.FromNewest(1), std::out_of_range);
}

TEST(RingBuffer, ZeroCapacityRejected) {
  EXPECT_THROW(RingBuffer<int>(0), std::invalid_argument);
}

// Property: against a reference std::vector model, a RingBuffer of
// capacity C behaves exactly like "the last min(size, C) pushed values"
// under any interleaving of Push/Clear, across every index and both
// access directions, at every wraparound phase.
TEST(RingBuffer, PropertyMatchesVectorModelAcrossRandomOps) {
  Rng rng(0x51D6u);
  for (std::size_t capacity : {1u, 2u, 3u, 7u, 16u}) {
    RingBuffer<int> rb(capacity);
    std::vector<int> model;  // full push history since last Clear
    for (int op = 0; op < 500; ++op) {
      if (rng.NextBelow(40) == 0) {
        rb.Clear();
        model.clear();
      } else {
        const int value = static_cast<int>(rng.NextBelow(1000));
        rb.Push(value);
        model.push_back(value);
      }
      const std::size_t expect_size = std::min(model.size(), capacity);
      ASSERT_EQ(rb.size(), expect_size);
      ASSERT_EQ(rb.empty(), expect_size == 0);
      ASSERT_EQ(rb.full(), expect_size == capacity);
      ASSERT_EQ(rb.capacity(), capacity);
      const std::size_t base = model.size() - expect_size;
      for (std::size_t i = 0; i < expect_size; ++i) {
        ASSERT_EQ(rb.At(i), model[base + i]) << "cap=" << capacity;
        // FromNewest(i) and At(size-1-i) are the same element.
        ASSERT_EQ(rb.FromNewest(i), rb.At(expect_size - 1 - i));
      }
      // One past the end throws in both directions.
      ASSERT_THROW(rb.At(expect_size), std::out_of_range);
      ASSERT_THROW(rb.FromNewest(expect_size), std::out_of_range);
    }
  }
}

// Property: EndsWith agrees with a suffix comparison of the model at
// every length, including across the eviction boundary.
TEST(RingBuffer, PropertyEndsWithMatchesModelSuffix) {
  Rng rng(4242);
  RingBuffer<int> rb(5);
  std::vector<int> model;
  for (int op = 0; op < 300; ++op) {
    const int value = static_cast<int>(rng.NextBelow(3));  // collisions likely
    rb.Push(value);
    model.push_back(value);
    const std::size_t live = std::min(model.size(), rb.capacity());
    for (std::size_t len = 1; len <= live; ++len) {
      const std::vector<int> suffix(model.end() - static_cast<long>(len),
                                    model.end());
      ASSERT_TRUE(rb.EndsWith(suffix)) << "len=" << len;
      // Perturb one element: must no longer match.
      std::vector<int> wrong = suffix;
      wrong[op % len] += 1;
      ASSERT_FALSE(rb.EndsWith(wrong)) << "len=" << len;
    }
    ASSERT_FALSE(
        rb.EndsWith(std::vector<int>(live + 1, 0)));  // longer than live
  }
}

// Clear resets to a pristine state: same behavior as a new buffer.
TEST(RingBuffer, ClearThenRefillMatchesFreshBuffer) {
  RingBuffer<int> used(4);
  for (int i = 0; i < 11; ++i) used.Push(i);  // wrapped nearly 3 times
  used.Clear();
  EXPECT_TRUE(used.empty());
  EXPECT_EQ(used.size(), 0u);
  EXPECT_THROW(used.At(0), std::out_of_range);
  RingBuffer<int> fresh(4);
  for (int v : {5, 6, 7}) {
    used.Push(v);
    fresh.Push(v);
  }
  ASSERT_EQ(used.size(), fresh.size());
  for (std::size_t i = 0; i < used.size(); ++i) {
    EXPECT_EQ(used.At(i), fresh.At(i));
  }
}

// --------------------------------------------------------------- stats

TEST(Stats, RunningStatsBasics) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(Median(v), 2.5);
}

TEST(Stats, EmpiricalCdfMonotone) {
  Rng rng(9);
  std::vector<double> v;
  for (int i = 0; i < 100; ++i) v.push_back(rng.NextDouble());
  const auto cdf = EmpiricalCdf(v);
  ASSERT_EQ(cdf.size(), v.size());
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].value, cdf[i - 1].value);
    EXPECT_GT(cdf[i].cumulative_probability, cdf[i - 1].cumulative_probability);
  }
  EXPECT_DOUBLE_EQ(cdf.back().cumulative_probability, 1.0);
}

TEST(Stats, JainFairnessEqualFlowsIsOne) {
  const std::vector<double> v = {5.0, 5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(JainFairnessIndex(v), 1.0);
}

TEST(Stats, JainFairnessSingleHogIsOneOverN) {
  const std::vector<double> v = {10.0, 0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(JainFairnessIndex(v), 0.25);
}

TEST(Stats, JainFairnessBounds) {
  Rng rng(10);
  std::vector<double> v;
  for (int i = 0; i < 20; ++i) v.push_back(rng.NextDouble());
  const double j = JainFairnessIndex(v);
  EXPECT_GT(j, 1.0 / 20.0);
  EXPECT_LE(j, 1.0);
}

TEST(Stats, HistogramPdfSumsToOne) {
  Rng rng(11);
  std::vector<double> v;
  for (int i = 0; i < 1000; ++i) v.push_back(rng.NextDouble() * 10.0);
  const auto pdf = HistogramPdf(v, 0.0, 10.0, 20);
  double sum = 0.0;
  for (double p : pdf) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

// --------------------------------------------------------------- units

TEST(Units, DbRoundTrip) {
  EXPECT_NEAR(DbToLinear(LinearToDb(123.0)), 123.0, 1e-9);
  EXPECT_NEAR(LinearToDb(100.0), 20.0, 1e-12);
}

TEST(Units, DbmWatts) {
  EXPECT_NEAR(DbmToWatts(0.0), 1e-3, 1e-12);
  EXPECT_NEAR(DbmToWatts(30.0), 1.0, 1e-9);
  EXPECT_NEAR(WattsToDbm(1e-6), -30.0, 1e-9);
}

TEST(Units, AmplitudeDb) {
  EXPECT_NEAR(AmplitudeToDb(10.0), 20.0, 1e-12);
  EXPECT_NEAR(DbToAmplitude(6.0206), 2.0, 1e-4);
}

// Runs one numeric Consume* over `--x VALUE`: whether the flag was
// taken, whether the value was accepted, and what was stored.
template <class T, class Consume>
bool ConsumeOne(const char* raw, T* value, bool* ok, Consume consume) {
  std::string flag = "--x";
  std::string arg = raw;
  char* argv[] = {flag.data(), flag.data(), arg.data()};
  int argc = 3;
  *ok = true;
  const bool found = consume(argc, argv, "--x", value, ok);
  EXPECT_EQ(argc, 1) << raw;  // consumed either way
  return found;
}

TEST(Cli, ConsumeSizeTakesOnlyAWholeUnsignedDecimal) {
  std::size_t v = 7;
  bool ok = true;
  EXPECT_TRUE(ConsumeOne("42", &v, &ok, cli::ConsumeSize));
  EXPECT_TRUE(ok);
  EXPECT_EQ(v, 42u);
  // strtoull alone would read "-1" as 2^64-1 and " 5" as 5.
  for (const char* bad : {"abc", "4x", "", "-1", " 5", "+5", "1.5",
                          "99999999999999999999"}) {
    v = 7;
    EXPECT_FALSE(ConsumeOne(bad, &v, &ok, cli::ConsumeSize)) << bad;
    EXPECT_FALSE(ok) << bad;
    EXPECT_EQ(v, 7u) << bad;
  }
}

TEST(Cli, ConsumeDoubleTakesOnlyAWholeFiniteNumber) {
  double v = 1.0;
  bool ok = true;
  EXPECT_TRUE(ConsumeOne("2.5", &v, &ok, cli::ConsumeDouble));
  EXPECT_TRUE(ok);
  EXPECT_EQ(v, 2.5);
  EXPECT_TRUE(ConsumeOne("-0.25", &v, &ok, cli::ConsumeDouble));
  EXPECT_EQ(v, -0.25);
  for (const char* bad : {"xyz", "2.5s", "", "inf", "nan", "1e999"}) {
    v = 1.0;
    EXPECT_FALSE(ConsumeOne(bad, &v, &ok, cli::ConsumeDouble)) << bad;
    EXPECT_FALSE(ok) << bad;
    EXPECT_EQ(v, 1.0) << bad;
  }
}

TEST(Json, ParsesNestedValuesKeepingNumberTokens) {
  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(
      "{\"a\": [1, 18446744073709551615, -2.5e-3], \"b\": {\"c\": true},"
      " \"s\": \"q\\\"\\n\\u0001\", \"n\": null}",
      &root, &error))
      << error;
  ASSERT_EQ(root.kind, JsonValue::Kind::kObject);
  const JsonValue* a = root.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items.size(), 3u);
  EXPECT_EQ(a->items[1].raw, "18446744073709551615");
  EXPECT_EQ(a->items[2].raw, "-2.5e-3");
  EXPECT_TRUE(root.Find("b")->Find("c")->boolean);
  EXPECT_EQ(root.Find("s")->raw, "q\"\n\x01");
  EXPECT_EQ(root.Find("n")->kind, JsonValue::Kind::kNull);
  EXPECT_EQ(root.Find("missing"), nullptr);
}

TEST(Json, RejectsWhatALenientParserWouldGuessAt) {
  struct Case {
    const char* text;
    const char* error;
  };
  const Case cases[] = {
      {"{\"k\": 1, \"k\": 2}", "duplicate key \"k\""},
      {"{} {}", "trailing bytes after JSON value"},
      {"{\"k\": 1,}", "malformed JSON"},
      {"\"\\u00e9\"", "malformed JSON"},  // records are ASCII
      {"[[[[[[[[[[[[[[[[[[1]]]]]]]]]]]]]]]]]", "malformed JSON"},
      {"1.2.3", "malformed JSON"},
      {"", "malformed JSON"},
  };
  for (const Case& c : cases) {
    JsonValue root;
    std::string error;
    EXPECT_FALSE(ParseJson(c.text, &root, &error)) << c.text;
    EXPECT_EQ(error, c.error) << c.text;
  }
}

}  // namespace
}  // namespace freerider
