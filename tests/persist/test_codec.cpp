// Property tests for persist::codec — the Gorilla-style bit-packing layer
// under the engine snapshot and WAL payloads (DESIGN.md §11).  The single
// invariant that matters is BIT-EXACT round-trip for every input: random
// streams, the adversarial values the escape hatch exists for (NaN
// payloads, ±Inf, denormals), irregular and backward timestamps, and
// degenerate block shapes (empty, single sample).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "persist/codec.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace larp::persist::codec {
namespace {

std::vector<std::byte> to_bytes(BlockWriter& w) {
  const auto span = w.bytes();
  return {span.begin(), span.end()};
}

void expect_f64_roundtrip(const std::vector<double>& xs, const char* what) {
  BlockWriter w;
  encode_f64_block(w, xs);
  const auto bytes = to_bytes(w);
  BlockReader r(bytes);
  std::vector<double> back;
  (void)decode_f64_block(r, xs.size(), back);
  ASSERT_EQ(back.size(), xs.size()) << what;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    // Bit pattern comparison: NaN != NaN arithmetically, and -0.0 == 0.0,
    // so value comparison would miss exactly the cases the escape covers.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back[i]),
              std::bit_cast<std::uint64_t>(xs[i]))
        << what << " at index " << i;
  }
}

void expect_i64_roundtrip(const std::vector<std::int64_t>& xs,
                          const char* what) {
  BlockWriter w;
  encode_i64_block(w, xs);
  const auto bytes = to_bytes(w);
  BlockReader r(bytes);
  std::vector<std::int64_t> back;
  decode_i64_block(r, xs.size(), back);
  ASSERT_EQ(back.size(), xs.size()) << what;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(back[i], xs[i]) << what << " at index " << i;
  }
}

TEST(BlockStreamTest, BitsRoundTripAcrossAccumulatorBoundaries) {
  // Widths straddling the 64-bit accumulator are where a masking bug hides.
  Rng rng(11);
  std::vector<std::pair<std::uint64_t, unsigned>> fields;
  BlockWriter w;
  for (int i = 0; i < 2000; ++i) {
    const auto width = static_cast<unsigned>(rng.uniform_int(1, 64));
    std::uint64_t value = rng();
    if (width < 64) value &= (1ull << width) - 1ull;
    fields.emplace_back(value, width);
    w.bits(value, width);
  }
  const auto bytes = to_bytes(w);
  BlockReader r(bytes);
  for (const auto& [value, width] : fields) {
    EXPECT_EQ(r.bits(width), value);
  }
}

TEST(BlockStreamTest, UvarintRoundTripIncludingExtremes) {
  BlockWriter w;
  const std::vector<std::uint64_t> values = {
      0, 1, 127, 128, 16383, 16384, 1ull << 32,
      std::numeric_limits<std::uint64_t>::max()};
  for (const auto v : values) w.uvarint(v);
  const auto bytes = to_bytes(w);
  BlockReader r(bytes);
  for (const auto v : values) EXPECT_EQ(r.uvarint(), v);
}

TEST(BlockStreamTest, ReadPastEndThrows) {
  BlockWriter w;
  w.bits(0x2A, 7);
  const auto bytes = to_bytes(w);
  BlockReader r(bytes);
  (void)r.bits(7);
  (void)r.bits(1);  // zero padding of the final byte
  EXPECT_THROW((void)r.bits(1), CorruptData);
}

TEST(ZigzagTest, RoundTripsExtremes) {
  const std::vector<std::int64_t> values = {
      0, 1, -1, 63, -64, std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::min()};
  for (const auto v : values) EXPECT_EQ(unzigzag(zigzag(v)), v);
}

TEST(DodCodecTest, RegularCadenceCostsOneBitPerStep) {
  // 5-minute cadence: constant delta, so every post-header step is the
  // single '0' dod bucket — the whole point of delta-of-delta.
  std::vector<std::int64_t> ts;
  for (int i = 0; i < 1024; ++i) ts.push_back(1700000000 + 300 * i);
  BlockWriter w;
  encode_i64_block(w, ts);
  const auto bytes = to_bytes(w);
  // header varint + delta varint + ~1 bit per remaining step.
  EXPECT_LE(bytes.size(), 16u + 1024 / 8);
  BlockReader r(bytes);
  std::vector<std::int64_t> back;
  decode_i64_block(r, ts.size(), back);
  EXPECT_EQ(back, ts);
}

TEST(DodCodecTest, IrregularAndBackwardTimestampsRoundTrip) {
  Rng rng(22);
  std::vector<std::int64_t> ts;
  std::int64_t t = 1700000000;
  for (int i = 0; i < 512; ++i) {
    // Jittered cadence with occasional large forward leaps and BACKWARD
    // jumps (clock resets) — dod buckets must fall back, not clamp.
    t += rng.uniform_int(-600, 600);
    if (rng.bernoulli(0.05)) t -= rng.uniform_int(0, 1 << 20);
    if (rng.bernoulli(0.05)) t += rng.uniform_int(0, 1ll << 40);
    ts.push_back(t);
  }
  expect_i64_roundtrip(ts, "irregular timestamps");
}

TEST(DodCodecTest, Int64ExtremesRoundTrip) {
  expect_i64_roundtrip(
      {std::numeric_limits<std::int64_t>::min(),
       std::numeric_limits<std::int64_t>::max(),
       std::numeric_limits<std::int64_t>::min(), 0,
       std::numeric_limits<std::int64_t>::max(), -1, 1},
      "int64 extremes");
}

TEST(DodCodecTest, RandomSequencesRoundTrip) {
  Rng rng(33);
  for (int round = 0; round < 20; ++round) {
    std::vector<std::int64_t> xs;
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 300));
    for (std::size_t i = 0; i < n; ++i) {
      xs.push_back(static_cast<std::int64_t>(rng()));
    }
    expect_i64_roundtrip(xs, "random int64");
  }
}

TEST(XorCodecTest, SlowlyVaryingSeriesCompresses) {
  // The shape the codec is built for: an AR(1)-ish metric stream quantized
  // the way samplers emit it (fixed decimation, here 1/8 steps — exact in
  // binary).  Assert both exact round-trip AND that it beats raw doubles;
  // unquantized noise would leave the mantissa incompressible.
  Rng rng(44);
  std::vector<double> xs;
  double level = 50.0;
  for (int i = 0; i < 4096; ++i) {
    level = 0.95 * level + rng.normal(0.0, 0.5) + 2.5;
    xs.push_back(std::round(level * 8.0) / 8.0);
  }
  BlockWriter w;
  encode_f64_block(w, xs);
  const auto bytes = to_bytes(w);
  EXPECT_LT(bytes.size(), xs.size() * sizeof(double) / 2);
  BlockReader r(bytes);
  std::vector<double> back;
  (void)decode_f64_block(r, xs.size(), back);
  for (std::size_t i = 0; i < xs.size(); ++i) EXPECT_EQ(back[i], xs[i]);
}

TEST(XorCodecTest, ConstantSeriesCostsOneBitPerValue) {
  const std::vector<double> xs(2048, 42.125);
  BlockWriter w;
  encode_f64_block(w, xs);
  const auto bytes = to_bytes(w);
  // First value pays the escape, every repeat is a single '0' bit.
  EXPECT_LE(bytes.size(), 16u + 2048 / 8);
  expect_f64_roundtrip(xs, "constant series");
}

TEST(XorCodecTest, AdversarialValuesRoundTripBitExact) {
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  const double snan = std::numeric_limits<double>::signaling_NaN();
  const double payload_nan =
      std::bit_cast<double>(0x7FF8DEADBEEF1234ull);  // NaN payload bits
  const double negative_nan = std::bit_cast<double>(0xFFF8000000000001ull);
  const double inf = std::numeric_limits<double>::infinity();
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double big_denorm = std::bit_cast<double>(0x000FFFFFFFFFFFFFull);
  expect_f64_roundtrip(
      {qnan, snan, payload_nan, negative_nan, inf, -inf, denorm, -denorm,
       big_denorm, 0.0, -0.0, 1.0, -1.0,
       std::numeric_limits<double>::max(), std::numeric_limits<double>::min(),
       std::numeric_limits<double>::lowest()},
      "adversarial values");
}

TEST(XorCodecTest, MixedNormalAndAdversarialStreamRoundTrips) {
  // The fuzz shape that caught real Gorilla implementations out: escapes
  // interleaved with compressible values, so window state churns through
  // establish/reuse/escape transitions in every order.
  Rng rng(55);
  const std::vector<double> specials = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      -0.0,
      0.0};
  for (int round = 0; round < 20; ++round) {
    std::vector<double> xs;
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 400));
    double level = 100.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double roll = rng.uniform();
      if (roll < 0.15) {
        xs.push_back(
            specials[static_cast<std::size_t>(rng.uniform_int(0, 5))]);
      } else if (roll < 0.25) {
        xs.push_back(std::bit_cast<double>(rng()));  // arbitrary bit pattern
      } else {
        level = 0.9 * level + rng.normal(0.0, 3.0);
        xs.push_back(level);
      }
    }
    expect_f64_roundtrip(xs, "mixed adversarial stream");
  }
}

TEST(XorCodecTest, SingleSampleAndEmptyBlocksRoundTrip) {
  expect_f64_roundtrip({}, "empty block");
  expect_f64_roundtrip({3.14159}, "single sample");
  expect_f64_roundtrip({std::numeric_limits<double>::quiet_NaN()},
                       "single NaN");
  expect_i64_roundtrip({}, "empty int block");
  expect_i64_roundtrip({-7}, "single int sample");
}

TEST(XorCodecTest, ChainStateSpansBlocks) {
  // The serving engine persists XorState mid-chain; encoding the second
  // half from saved state must decode against the same saved state.
  Rng rng(66);
  std::vector<double> xs;
  double level = 10.0;
  for (int i = 0; i < 200; ++i) {
    level += rng.normal(0.0, 1.0);
    xs.push_back(level);
  }
  XorState enc_state;
  BlockWriter first;
  for (int i = 0; i < 100; ++i) XorEncoder::put(first, enc_state, xs[i]);
  const auto first_bytes = to_bytes(first);

  // Persist the mid-chain state through the io layer, as a snapshot would.
  io::Writer w;
  enc_state.save(w);
  io::Reader r{w.bytes()};
  XorState resumed;
  resumed.load(r);

  BlockWriter second;
  for (int i = 100; i < 200; ++i) XorEncoder::put(second, resumed, xs[i]);
  const auto second_bytes = to_bytes(second);

  XorState dec_state;
  BlockReader first_r(first_bytes);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(XorDecoder::get(first_r, dec_state), xs[i]);
  }
  BlockReader second_r(second_bytes);
  for (int i = 100; i < 200; ++i) {
    EXPECT_EQ(XorDecoder::get(second_r, dec_state), xs[i]);
  }
}

TEST(XorCodecTest, CorruptStateAndStreamsAreRejected) {
  {
    io::Writer w;
    w.u64(0);
    w.u8(65);  // lead > 63
    w.u8(1);
    io::Reader r{w.bytes()};
    XorState s;
    EXPECT_THROW(s.load(r), CorruptData);
  }
  {
    // Window-reuse control bits before any window was established.
    BlockWriter w;
    w.bits(0b01u, 2);
    const auto bytes = to_bytes(w);
    BlockReader r(bytes);
    XorState s;
    EXPECT_THROW((void)XorDecoder::get(r, s), CorruptData);
  }
  {
    // lead + length overflowing 64 in the explicit window header.
    BlockWriter w;
    w.bits(0b11u, 2);
    w.bits(63, 6);  // lead = 63
    w.bits(63, 6);  // length = 64
    w.bits(0, 63);  // filler so the reader does not hit EOF first
    const auto bytes = to_bytes(w);
    BlockReader r(bytes);
    XorState s;
    EXPECT_THROW((void)XorDecoder::get(r, s), CorruptData);
  }
}

TEST(CodecFuzzTest, RandomByteStreamsNeverCrashTheDecoders) {
  // Decoders must either produce values or throw CorruptData — never read
  // out of bounds or loop forever (ASan/TSan runs of this suite are the
  // teeth; see .github/workflows/ci.yml sanitizer jobs).
  Rng rng(77);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::byte> junk(
        static_cast<std::size_t>(rng.uniform_int(0, 64)));
    for (auto& b : junk) b = static_cast<std::byte>(rng() & 0xFF);
    try {
      BlockReader r(junk);
      std::vector<double> out;
      (void)decode_f64_block(r, 32, out);
    } catch (const CorruptData&) {
    }
    try {
      BlockReader r(junk);
      std::vector<std::int64_t> out;
      decode_i64_block(r, 32, out);
    } catch (const CorruptData&) {
    }
  }
}

}  // namespace
}  // namespace larp::persist::codec
