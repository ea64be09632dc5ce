/// SqCodec unit tests: the round-trip error contract (per-dimension error is
/// bounded by scale/2 for in-range values), degenerate corpora, and wire
/// round-trip, including a corrupt dimension in the image.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "annsim/common/error.hpp"
#include "annsim/common/rng.hpp"
#include "annsim/common/serialize.hpp"
#include "annsim/data/recipes.hpp"
#include "annsim/quant/sq_codec.hpp"

namespace annsim::quant {
namespace {

TEST(SqCodec, RoundTripErrorWithinBound) {
  auto w = data::make_sift_like(300, 1, 41);
  const SqCodec codec = SqCodec::train(w.base);
  ASSERT_EQ(codec.dim(), w.base.dim());
  const float bound = codec.max_abs_error() + 1e-5f;
  std::vector<std::uint8_t> code(codec.code_stride());
  std::vector<float> out(codec.dim());
  for (std::size_t i = 0; i < w.base.size(); ++i) {
    codec.encode(w.base.row_span(i), code.data());
    codec.decode(code.data(), out.data());
    for (std::size_t j = 0; j < codec.dim(); ++j) {
      EXPECT_LE(std::fabs(out[j] - w.base.row(i)[j]), bound)
          << "row " << i << " dim " << j;
    }
  }
}

TEST(SqCodec, PerDimensionBoundIsHalfScale) {
  // Tighter than max_abs_error(): each dimension's own error is scale_d / 2.
  auto w = data::make_sift_like(200, 1, 42);
  const SqCodec codec = SqCodec::train(w.base);
  std::vector<std::uint8_t> code(codec.code_stride());
  std::vector<float> out(codec.dim());
  for (std::size_t i = 0; i < w.base.size(); i += 7) {
    codec.encode(w.base.row_span(i), code.data());
    codec.decode(code.data(), out.data());
    for (std::size_t j = 0; j < codec.dim(); ++j) {
      // Half-scale holds in exact arithmetic; the slack covers float
      // rounding in both encode ((v-min)/scale) and decode (min+scale*code),
      // the latter at the magnitude of the value itself.
      EXPECT_LE(std::fabs(out[j] - w.base.row(i)[j]),
                codec.scales()[j] * 0.5f +
                    1e-4f * (1.f + std::fabs(w.base.row(i)[j])))
          << "row " << i << " dim " << j;
    }
  }
}

TEST(SqCodec, ConstantDimensionDecodesExactly) {
  data::Dataset rows(16, 4);
  Rng rng(43);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    float* r = rows.row(i);
    r[0] = 3.25f;  // constant: max == min, scale must be 0
    r[1] = float(rng.normal());
    r[2] = -1.5f;  // constant negative
    r[3] = float(rng.normal());
  }
  const SqCodec codec = SqCodec::train(rows);
  EXPECT_EQ(codec.scales()[0], 0.f);
  EXPECT_EQ(codec.scales()[2], 0.f);
  std::vector<std::uint8_t> code(codec.code_stride());
  std::vector<float> out(4);
  codec.encode(rows.row_span(5), code.data());
  codec.decode(code.data(), out.data());
  EXPECT_EQ(out[0], 3.25f);
  EXPECT_EQ(out[2], -1.5f);
}

TEST(SqCodec, OutOfRangeValuesClampToTrainedRange) {
  data::Dataset rows(8, 2);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows.row(i)[0] = float(i);  // trained range [0, 7]
    rows.row(i)[1] = float(i);
  }
  const SqCodec codec = SqCodec::train(rows);
  const std::vector<float> wild{100.f, -100.f};
  std::vector<std::uint8_t> code(codec.code_stride());
  std::vector<float> out(2);
  codec.encode(wild, code.data());
  codec.decode(code.data(), out.data());
  EXPECT_NEAR(out[0], 7.f, 1e-4f);  // clamped to trained max
  EXPECT_NEAR(out[1], 0.f, 1e-4f);  // clamped to trained min
}

TEST(SqCodec, CodeStrideIsAlignedAndPaddingZeroed) {
  auto w = data::make_sift_like(50, 1, 44);
  const SqCodec codec = SqCodec::train(w.base);
  EXPECT_EQ(codec.code_stride() % SqCodec::kCodeAlign, 0u);
  EXPECT_GE(codec.code_stride(), codec.dim());
  std::vector<std::uint8_t> code(codec.code_stride(), 0xFF);
  codec.encode(w.base.row_span(0), code.data());
  for (std::size_t j = codec.dim(); j < codec.code_stride(); ++j)
    EXPECT_EQ(code[j], 0u) << "padding byte " << j;
  // Padded mins/scales are zero so padded-width kernel sweeps add nothing.
  for (std::size_t j = codec.dim(); j < codec.code_stride(); ++j) {
    EXPECT_EQ(codec.mins()[j], 0.f);
    EXPECT_EQ(codec.scales()[j], 0.f);
  }
}

TEST(SqCodec, SerializeRoundTripsExactly) {
  auto w = data::make_sift_like(120, 1, 45);
  const SqCodec codec = SqCodec::train(w.base);
  BinaryWriter wtr;
  codec.serialize(wtr);
  const auto bytes = wtr.take();
  BinaryReader rdr(bytes);
  const SqCodec back = SqCodec::deserialize(rdr);
  ASSERT_EQ(back.dim(), codec.dim());
  for (std::size_t j = 0; j < codec.code_stride(); ++j) {
    EXPECT_EQ(back.mins()[j], codec.mins()[j]);
    EXPECT_EQ(back.scales()[j], codec.scales()[j]);
  }
  // Same codec bytes => same codes.
  std::vector<std::uint8_t> c1(codec.code_stride()), c2(codec.code_stride());
  codec.encode(w.base.row_span(7), c1.data());
  back.encode(w.base.row_span(7), c2.data());
  EXPECT_EQ(c1, c2);
}

TEST(SqCodec, DeserializeRejectsADimensionTheImageCannotHold) {
  auto w = data::make_sift_like(50, 1, 46);
  BinaryWriter wtr;
  SqCodec::train(w.base).serialize(wtr);
  auto bytes = wtr.take();
  // The leading u64 is the dimension; 2^40 floats would be a 4 TiB table.
  const std::uint64_t huge = std::uint64_t{1} << 40;
  std::memcpy(bytes.data(), &huge, sizeof(huge));
  BinaryReader rdr(bytes);
  EXPECT_THROW((void)SqCodec::deserialize(rdr), Error);
}

}  // namespace
}  // namespace annsim::quant
