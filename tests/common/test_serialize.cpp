#include "annsim/common/serialize.hpp"

#include <gtest/gtest.h>

#include "annsim/common/types.hpp"

namespace annsim {
namespace {

TEST(Serialize, PodRoundTrip) {
  BinaryWriter w;
  w.write(std::int32_t{-7});
  w.write(3.25);
  w.write(std::uint64_t{1} << 40);
  BinaryReader r(w.bytes());
  EXPECT_EQ(r.read<std::int32_t>(), -7);
  EXPECT_DOUBLE_EQ(r.read<double>(), 3.25);
  EXPECT_EQ(r.read<std::uint64_t>(), std::uint64_t{1} << 40);
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, VectorRoundTrip) {
  BinaryWriter w;
  w.write_vector(std::vector<float>{1.f, 2.f, 3.f});
  w.write_vector(std::vector<std::uint8_t>{});
  BinaryReader r(w.bytes());
  EXPECT_EQ(r.read_vector<float>(), (std::vector<float>{1.f, 2.f, 3.f}));
  EXPECT_TRUE(r.read_vector<std::uint8_t>().empty());
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, StringRoundTrip) {
  BinaryWriter w;
  w.write_string("hello annsim");
  w.write_string("");
  BinaryReader r(w.bytes());
  EXPECT_EQ(r.read_string(), "hello annsim");
  EXPECT_EQ(r.read_string(), "");
}

TEST(Serialize, StructRoundTrip) {
  BinaryWriter w;
  w.write(Neighbor{1.5f, 42});
  BinaryReader r(w.bytes());
  const auto n = r.read<Neighbor>();
  EXPECT_FLOAT_EQ(n.dist, 1.5f);
  EXPECT_EQ(n.id, 42u);
}

TEST(Serialize, UnderflowThrows) {
  BinaryWriter w;
  w.write(std::uint16_t{5});
  BinaryReader r(w.bytes());
  EXPECT_THROW(r.read<std::uint64_t>(), Error);
}

TEST(Serialize, VectorUnderflowThrows) {
  BinaryWriter w;
  w.write(std::uint64_t{1000});  // claims 1000 elements, provides none
  BinaryReader r(w.bytes());
  EXPECT_THROW(r.read_vector<double>(), Error);

  // A length whose byte size wraps 2^64 (2^61 * 8) must not pass the check.
  BinaryWriter wrap;
  wrap.write(std::uint64_t{1} << 61);
  wrap.write(std::uint64_t{0});
  BinaryReader rw(wrap.bytes());
  EXPECT_THROW(rw.read_vector<double>(), Error);
}

TEST(Serialize, RemainingTracksPosition) {
  BinaryWriter w;
  w.write(std::uint32_t{1});
  w.write(std::uint32_t{2});
  BinaryReader r(w.bytes());
  EXPECT_EQ(r.remaining(), 8u);
  (void)r.read<std::uint32_t>();
  EXPECT_EQ(r.remaining(), 4u);
  EXPECT_FALSE(r.exhausted());
  (void)r.read<std::uint32_t>();
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, TakeMovesBuffer) {
  BinaryWriter w;
  w.write(std::uint8_t{9});
  auto bytes = w.take();
  EXPECT_EQ(bytes.size(), 1u);
  EXPECT_EQ(w.size(), 0u);
}

TEST(Serialize, InterleavedMixedPayload) {
  BinaryWriter w;
  w.write(std::uint8_t{1});
  w.write_vector(std::vector<std::uint64_t>{10, 20});
  w.write(float{2.5f});
  w.write_string("x");
  BinaryReader r(w.bytes());
  EXPECT_EQ(r.read<std::uint8_t>(), 1u);
  EXPECT_EQ(r.read_vector<std::uint64_t>(), (std::vector<std::uint64_t>{10, 20}));
  EXPECT_FLOAT_EQ(r.read<float>(), 2.5f);
  EXPECT_EQ(r.read_string(), "x");
  EXPECT_TRUE(r.exhausted());
}

}  // namespace
}  // namespace annsim
