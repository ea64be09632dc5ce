#include "annsim/core/protocol.hpp"

#include <cstring>

#include "annsim/common/error.hpp"

namespace annsim::core {

std::vector<std::byte> encode_query_job(const QueryJob& job) {
  BinaryWriter w;
  w.write(job.query_id);
  w.write(job.partition);
  w.write(job.k);
  w.write(job.ef);
  w.write(job.reply_to);
  w.write_vector(job.query);
  return w.take();
}

QueryJob decode_query_job(std::span<const std::byte> bytes) {
  BinaryReader r(bytes);
  QueryJob job;
  job.query_id = r.read<std::uint32_t>();
  job.partition = r.read<PartitionId>();
  job.k = r.read<std::uint32_t>();
  job.ef = r.read<std::uint32_t>();
  job.reply_to = r.read<std::uint32_t>();
  job.query = r.read_vector<float>();
  ANNSIM_CHECK(r.exhausted());
  return job;
}

std::vector<std::byte> encode_local_result(const LocalResult& r) {
  BinaryWriter w;
  w.write(r.query_id);
  w.write(r.partition);
  w.write_span(std::span<const Neighbor>(r.neighbors));
  return w.take();
}

LocalResult decode_local_result(std::span<const std::byte> bytes) {
  BinaryReader r(bytes);
  LocalResult out;
  out.query_id = r.read<std::uint32_t>();
  out.partition = r.read<PartitionId>();
  out.neighbors = r.read_vector<Neighbor>();
  ANNSIM_CHECK(r.exhausted());
  return out;
}

std::vector<std::byte> encode_write_order(const WriteOrder& o) {
  ANNSIM_CHECK_MSG(o.lsns.size() == o.ids.size(),
                   "WriteOrder.lsns must be parallel to ids");
  BinaryWriter w;
  w.write(std::uint64_t(o.rows.size()));
  for (const auto& row : o.rows) {
    w.write(row.partition);
    w.write(row.id);
    w.write(row.lsn);
    w.write_vector(row.vec);
  }
  w.write_vector(o.ids);
  w.write_vector(o.lsns);
  w.write(o.compact_lsn);
  return w.take();
}

WriteOrder decode_write_order(std::span<const std::byte> bytes) {
  BinaryReader r(bytes);
  WriteOrder out;
  const auto n = r.read<std::uint64_t>();
  // Bound the row count by the bytes left before allocating any rows: even
  // an empty row carries its fixed fields and a vector length prefix.
  constexpr std::size_t kMinRowBytes = sizeof(PartitionId) + sizeof(GlobalId) +
                                       2 * sizeof(std::uint64_t);
  ANNSIM_CHECK_MSG(n <= r.remaining() / kMinRowBytes,
                   "WriteOrder claims " << n << " rows in " << r.remaining()
                                        << " bytes");
  out.rows.resize(n);
  for (auto& row : out.rows) {
    row.partition = r.read<PartitionId>();
    row.id = r.read<GlobalId>();
    row.lsn = r.read<std::uint64_t>();
    row.vec = r.read_vector<float>();
  }
  out.ids = r.read_vector<GlobalId>();
  out.lsns = r.read_vector<std::uint64_t>();
  out.compact_lsn = r.read<std::uint64_t>();
  ANNSIM_CHECK(r.exhausted());
  ANNSIM_CHECK_MSG(out.lsns.size() == out.ids.size(),
                   "WriteOrder.lsns must be parallel to ids");
  return out;
}

std::vector<std::byte> encode_write_ack(const WriteAck& a) {
  BinaryWriter w;
  w.write(a.inserted);
  w.write(a.erased);
  w.write(a.max_delta_fill);
  w.write(a.compactions);
  return w.take();
}

WriteAck decode_write_ack(std::span<const std::byte> bytes) {
  BinaryReader r(bytes);
  WriteAck out;
  out.inserted = r.read<std::uint64_t>();
  out.erased = r.read<std::uint64_t>();
  out.max_delta_fill = r.read<std::uint64_t>();
  out.compactions = r.read<std::uint64_t>();
  ANNSIM_CHECK(r.exhausted());
  return out;
}

std::optional<mpi::Message> recv_within(mpi::Comm& world, int source,
                                        mpi::Tag tag,
                                        std::chrono::microseconds timeout) {
  if (timeout.count() == 0) return world.recv(source, tag);
  return world.recv_for(source, tag, timeout);
}

bool mask_contains(std::span<const std::uint64_t> mask,
                   PartitionId p) noexcept {
  const std::size_t word = std::size_t(p) / 64;
  if (word >= mask.size()) return false;
  return (mask[word] >> (std::size_t(p) % 64)) & 1U;
}

namespace {

void check_layout(const SlotLayout& layout) {
  ANNSIM_CHECK_MSG(layout.n_partitions > 0,
                   "SlotLayout needs n_partitions > 0: every slot carries a "
                   "partition mask");
}

std::vector<std::uint64_t> read_mask(std::span<const std::byte> slot,
                                     const SlotLayout& layout) {
  std::vector<std::uint64_t> mask(layout.mask_words());
  std::memcpy(mask.data(), slot.data() + sizeof(std::uint64_t),
              mask.size() * sizeof(std::uint64_t));
  return mask;
}

/// Byte offset of word `w` of a slot's partition mask.
constexpr std::size_t mask_offset(std::size_t w) {
  return sizeof(std::uint64_t) * (1 + w);
}

std::uint64_t mask_word(std::span<const std::byte> slot, std::size_t w) {
  std::uint64_t v = 0;
  std::memcpy(&v, slot.data() + mask_offset(w), sizeof(v));
  return v;
}

}  // namespace

std::vector<std::byte> encode_slot_update(std::span<const Neighbor> neighbors,
                                          const SlotLayout& layout,
                                          PartitionId partition) {
  check_layout(layout);
  ANNSIM_CHECK_MSG(partition != kInvalidPartition &&
                       std::size_t(partition) < layout.n_partitions,
                   "encode_slot_update needs the searched partition id");
  std::vector<std::byte> out(layout.slot_bytes());
  const std::uint32_t count = 1;
  std::memcpy(out.data(), &count, sizeof(count));
  const std::uint64_t bit = std::uint64_t{1} << (std::size_t(partition) % 64);
  std::memcpy(out.data() + mask_offset(std::size_t(partition) / 64), &bit,
              sizeof(bit));
  std::vector<Neighbor> padded(layout.k);  // default = +inf sentinels
  const std::size_t n = std::min(neighbors.size(), layout.k);
  std::copy(neighbors.begin(), neighbors.begin() + std::ptrdiff_t(n),
            padded.begin());
  std::memcpy(out.data() + layout.header_bytes(), padded.data(),
              layout.k * sizeof(Neighbor));
  return out;
}

mpi::Window::MergeOp knn_slot_merge(const SlotLayout& layout) {
  check_layout(layout);
  return [layout](std::span<std::byte> target,
                  std::span<const std::byte> origin) {
    ANNSIM_CHECK(target.size() == layout.slot_bytes());
    ANNSIM_CHECK(origin.size() == layout.slot_bytes());

    std::uint32_t t_count = 0, o_count = 0;
    std::memcpy(&t_count, target.data(), sizeof(t_count));
    std::memcpy(&o_count, origin.data(), sizeof(o_count));

    const std::size_t words = layout.mask_words();
    // Failover retry that already landed: every origin partition is merged
    // into this slot already, so the whole update is a duplicate. Drop it.
    bool duplicate = true;
    for (std::size_t w = 0; w < words; ++w) {
      if ((mask_word(origin, w) & ~mask_word(target, w)) != 0) duplicate = false;
    }
    if (duplicate) return;

    std::vector<Neighbor> t_nb(layout.k), o_nb(layout.k);
    std::memcpy(t_nb.data(), target.data() + layout.header_bytes(),
                layout.k * sizeof(Neighbor));
    std::memcpy(o_nb.data(), origin.data() + layout.header_bytes(),
                layout.k * sizeof(Neighbor));

    // A fresh slot holds zero-initialized neighbors (dist 0, id 0) when
    // count == 0; treat it as empty rather than as k bogus zero-distance hits.
    const std::vector<Neighbor> merged =
        t_count == 0 ? std::vector<Neighbor>(o_nb.begin(), o_nb.end())
                     : merge_sorted_knn(t_nb, o_nb, layout.k);

    const std::uint32_t new_count = t_count + o_count;
    std::memcpy(target.data(), &new_count, sizeof(new_count));
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t both = mask_word(target, w) | mask_word(origin, w);
      std::memcpy(target.data() + mask_offset(w), &both, sizeof(both));
    }
    std::vector<Neighbor> padded(layout.k);
    std::copy(merged.begin(),
              merged.begin() + std::ptrdiff_t(std::min(merged.size(), layout.k)),
              padded.begin());
    std::memcpy(target.data() + layout.header_bytes(), padded.data(),
                layout.k * sizeof(Neighbor));
  };
}

SlotHeader decode_slot_header(std::span<const std::byte> slot,
                              const SlotLayout& layout) {
  check_layout(layout);
  ANNSIM_CHECK(slot.size() >= layout.header_bytes());
  SlotHeader out;
  std::memcpy(&out.merged_count, slot.data(), sizeof(out.merged_count));
  out.mask = read_mask(slot, layout);
  return out;
}

DecodedSlot decode_slot(std::span<const std::byte> slot,
                        const SlotLayout& layout) {
  check_layout(layout);
  ANNSIM_CHECK(slot.size() >= layout.slot_bytes());
  DecodedSlot out;
  std::memcpy(&out.merged_count, slot.data(), sizeof(out.merged_count));
  out.mask = read_mask(slot, layout);
  out.neighbors.resize(layout.k);
  std::memcpy(out.neighbors.data(), slot.data() + layout.header_bytes(),
              layout.k * sizeof(Neighbor));
  // Drop +inf padding sentinels.
  while (!out.neighbors.empty() &&
         out.neighbors.back().id == kInvalidGlobalId) {
    out.neighbors.pop_back();
  }
  return out;
}

}  // namespace annsim::core
