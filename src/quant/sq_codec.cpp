#include "annsim/quant/sq_codec.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "annsim/common/error.hpp"

namespace annsim::quant {

SqCodec SqCodec::train(const data::Dataset& rows) {
  ANNSIM_CHECK_MSG(!rows.empty(), "SqCodec::train: empty corpus");
  SqCodec c;
  c.dim_ = rows.dim();
  const std::size_t padded = c.code_stride();
  c.mins_.reset(padded);
  c.scales_.reset(padded);

  std::vector<float> lo(c.dim_, std::numeric_limits<float>::infinity());
  std::vector<float> hi(c.dim_, -std::numeric_limits<float>::infinity());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const float* r = rows.row(i);
    for (std::size_t d = 0; d < c.dim_; ++d) {
      lo[d] = std::min(lo[d], r[d]);
      hi[d] = std::max(hi[d], r[d]);
    }
  }
  for (std::size_t d = 0; d < c.dim_; ++d) {
    c.mins_[d] = lo[d];
    c.scales_[d] = (hi[d] - lo[d]) / 255.0f;
  }
  // Padding dims stay (min 0, scale 0): codes there are 0 and decode to 0,
  // contributing nothing to padded-width kernel sweeps.
  return c;
}

void SqCodec::encode(std::span<const float> row, std::uint8_t* code) const noexcept {
  for (std::size_t d = 0; d < dim_; ++d) {
    const float s = scales_[d];
    float q = s > 0.0f ? std::nearbyint((row[d] - mins_[d]) / s) : 0.0f;
    q = std::clamp(q, 0.0f, 255.0f);
    code[d] = std::uint8_t(q);
  }
  std::fill(code + dim_, code + code_stride(), std::uint8_t{0});
}

void SqCodec::decode(const std::uint8_t* code, float* out) const noexcept {
  for (std::size_t d = 0; d < dim_; ++d) {
    out[d] = mins_[d] + scales_[d] * float(code[d]);
  }
}

float SqCodec::max_abs_error() const noexcept {
  float worst = 0.0f;
  for (std::size_t d = 0; d < dim_; ++d) worst = std::max(worst, scales_[d]);
  return worst * 0.5f;
}

void SqCodec::serialize(BinaryWriter& w) const {
  w.write(std::uint64_t(dim_));
  w.write_span(std::span<const float>(mins_.data(), dim_));
  w.write_span(std::span<const float>(scales_.data(), dim_));
}

SqCodec SqCodec::deserialize(BinaryReader& r) {
  SqCodec c;
  c.dim_ = std::size_t(r.read<std::uint64_t>());
  ANNSIM_CHECK_MSG(c.dim_ > 0 && c.dim_ <= r.remaining() / sizeof(float),
                   "SqCodec: dimension " << c.dim_ << " does not fit the image");
  const std::size_t padded = c.code_stride();
  c.mins_.reset(padded);
  c.scales_.reset(padded);
  const auto n_mins = r.read<std::uint64_t>();
  ANNSIM_CHECK_MSG(n_mins == c.dim_, "SqCodec: mins length mismatch");
  r.read_into(std::span<float>(c.mins_.data(), c.dim_));
  const auto n_scales = r.read<std::uint64_t>();
  ANNSIM_CHECK_MSG(n_scales == c.dim_, "SqCodec: scales length mismatch");
  r.read_into(std::span<float>(c.scales_.data(), c.dim_));
  return c;
}

}  // namespace annsim::quant
