/// Failure injection: malformed wire payloads must raise annsim::Error —
/// never crash, hang, or silently mis-decode. The decoders guard the
/// master/worker protocol against truncated or corrupted messages.

#include <gtest/gtest.h>

#include <cstring>

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

TEST(ProtocolFuzz, WriteOrderRandomBytesNeverCrash) {
  Rng rng(3);
  for (int rep = 0; rep < 500; ++rep) {
    const auto bytes = random_bytes(rng.uniform_below(96), rng);
    expect_error_or_valid(bytes,
                          [](const auto& b) { return decode_write_order(b); });
  }
}

TEST(ProtocolFuzz, WriteAckRandomBytesNeverCrash) {
  Rng rng(4);
  for (int rep = 0; rep < 500; ++rep) {
    const auto bytes = random_bytes(rng.uniform_below(64), rng);
    expect_error_or_valid(bytes,
                          [](const auto& b) { return decode_write_ack(b); });
  }
}

WriteOrder sample_write_order() {
  WriteOrder o;
  o.rows.push_back({PartitionId{1}, GlobalId{7}, 3, {1.f, 2.f}});
  o.rows.push_back({PartitionId{2}, GlobalId{9}, 4, {}});
  o.ids = {5, 6};
  o.lsns = {5, 6};
  o.compact_lsn = 8;
  return o;
}

TEST(ProtocolFuzz, WriteOrderRoundTrips) {
  const WriteOrder o = sample_write_order();
  const WriteOrder back = decode_write_order(encode_write_order(o));
  ASSERT_EQ(back.rows.size(), 2u);
  EXPECT_EQ(back.rows[0].partition, PartitionId{1});
  EXPECT_EQ(back.rows[0].id, GlobalId{7});
  EXPECT_EQ(back.rows[0].lsn, 3u);
  EXPECT_EQ(back.rows[0].vec, o.rows[0].vec);
  EXPECT_TRUE(back.rows[1].vec.empty());
  EXPECT_EQ(back.ids, o.ids);
  EXPECT_EQ(back.lsns, o.lsns);
  EXPECT_EQ(back.compact_lsn, 8u);
}

TEST(ProtocolFuzz, TruncatedWriteOrderThrows) {
  const auto full = encode_write_order(sample_write_order());
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    std::vector<std::byte> truncated(full.begin(),
                                     full.begin() + std::ptrdiff_t(cut));
    EXPECT_THROW((void)decode_write_order(truncated), Error) << "cut=" << cut;
  }
}

TEST(ProtocolFuzz, TruncatedWriteAckThrows) {
  const auto full = encode_write_ack({1, 2, 3, 4});
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    std::vector<std::byte> truncated(full.begin(),
                                     full.begin() + std::ptrdiff_t(cut));
    EXPECT_THROW((void)decode_write_ack(truncated), Error) << "cut=" << cut;
  }
}

TEST(ProtocolFuzz, OversizedWriteOrderRowCountThrowsBeforeAllocating) {
  // A row count the payload cannot hold is rejected before any row is
  // allocated. Sizing the rows first would throw std::length_error or
  // std::bad_alloc for the larger counts here, not annsim::Error, and
  // allocate hundreds of MB for the smaller ones before failing.
  for (const std::uint64_t n : {std::uint64_t{1} << 22, std::uint64_t{1} << 26,
                                std::uint64_t{1} << 60, ~std::uint64_t{0}}) {
    BinaryWriter w;
    w.write(n);
    EXPECT_THROW((void)decode_write_order(w.bytes()), Error) << "n=" << n;
  }
  // One row more than the bytes behind the count can hold, even when every
  // row is empty.
  WriteOrder o;
  o.rows.resize(3);
  auto bytes = encode_write_order(o);
  const std::uint64_t four = 4;
  std::memcpy(bytes.data(), &four, sizeof(four));
  EXPECT_THROW((void)decode_write_order(bytes), Error);
}

TEST(ProtocolFuzz, WriteOrderRejectsUnpairedTombstoneLsns) {
  WriteOrder o = sample_write_order();
  o.lsns.pop_back();
  EXPECT_THROW((void)encode_write_order(o), Error);
  BinaryWriter w;
  w.write(std::uint64_t{0});                      // no rows
  w.write_vector(std::vector<GlobalId>{1, 2});    // ids
  w.write_vector(std::vector<std::uint64_t>{1});  // lsns, one short
  w.write(std::uint64_t{0});                      // compact_lsn
  EXPECT_THROW((void)decode_write_order(w.bytes()), Error);
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
