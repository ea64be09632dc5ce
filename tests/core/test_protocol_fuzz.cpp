/// Failure injection: malformed wire payloads must raise annsim::Error —
/// never crash, hang, or silently mis-decode. The decoders guard the
/// master/worker protocol against truncated or corrupted messages.

#include <gtest/gtest.h>

#include "annsim/common/error.hpp"
#include "annsim/common/rng.hpp"
#include "annsim/core/protocol.hpp"

namespace annsim::core {
namespace {

std::vector<std::byte> random_bytes(std::size_t n, Rng& rng) {
  std::vector<std::byte> out(n);
  for (auto& b : out) b = std::byte(rng.uniform_below(256));
  return out;
}

template <typename Decoder>
void expect_error_or_valid(const std::vector<std::byte>& bytes,
                           Decoder decode) {
  try {
    (void)decode(bytes);  // random bytes may decode by luck; that's fine
  } catch (const Error&) {
    // expected for almost all inputs
  }
}

TEST(ProtocolFuzz, QueryJobRandomBytesNeverCrash) {
  Rng rng(1);
  for (int rep = 0; rep < 500; ++rep) {
    const auto bytes = random_bytes(rng.uniform_below(64), rng);
    expect_error_or_valid(bytes, [](const auto& b) { return decode_query_job(b); });
  }
}

TEST(ProtocolFuzz, LocalResultRandomBytesNeverCrash) {
  Rng rng(2);
  for (int rep = 0; rep < 500; ++rep) {
    const auto bytes = random_bytes(rng.uniform_below(64), rng);
    expect_error_or_valid(bytes,
                          [](const auto& b) { return decode_local_result(b); });
  }
}

TEST(ProtocolFuzz, TruncatedQueryJobThrows) {
  QueryJob job;
  job.query = {1.f, 2.f, 3.f, 4.f};
  const auto full = encode_query_job(job);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    std::vector<std::byte> truncated(full.begin(),
                                     full.begin() + std::ptrdiff_t(cut));
    EXPECT_THROW((void)decode_query_job(truncated), Error) << "cut=" << cut;
  }
}

TEST(ProtocolFuzz, TruncatedLocalResultThrows) {
  LocalResult r;
  r.neighbors = {{1.f, 1}, {2.f, 2}};
  const auto full = encode_local_result(r);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    std::vector<std::byte> truncated(full.begin(),
                                     full.begin() + std::ptrdiff_t(cut));
    EXPECT_THROW((void)decode_local_result(truncated), Error) << "cut=" << cut;
  }
}

TEST(ProtocolFuzz, OversizedLengthFieldThrows) {
  // A hostile length prefix claiming 2^60 floats must be rejected by bounds
  // checking, not attempted.
  BinaryWriter w;
  w.write(std::uint32_t{1});            // query_id
  w.write(PartitionId{0});              // partition
  w.write(std::uint32_t{10});           // k
  w.write(std::uint32_t{0});            // ef
  w.write(std::uint32_t{0});            // reply_to
  w.write(std::uint64_t{1} << 60);      // vector length
  EXPECT_THROW((void)decode_query_job(w.bytes()), Error);
}

TEST(ProtocolFuzz, SlotDecodeRejectsShortBuffers) {
  const SlotLayout layout{10, 8};
  std::vector<std::byte> tiny(layout.slot_bytes() - 1);
  EXPECT_THROW((void)decode_slot(tiny, layout), Error);
}

TEST(ProtocolFuzz, MergeOpRejectsMismatchedRegions) {
  const SlotLayout layout{4, 8};
  const auto merge = knn_slot_merge(layout);
  std::vector<std::byte> slot(layout.slot_bytes());
  std::vector<std::byte> short_origin(layout.slot_bytes() - 8);
  EXPECT_THROW(merge(slot, short_origin), Error);
  std::vector<std::byte> short_target(layout.slot_bytes() - 8);
  std::vector<std::byte> origin(layout.slot_bytes());
  EXPECT_THROW(merge(short_target, origin), Error);
}

}  // namespace
}  // namespace annsim::core
