#pragma once
/// \file serialize.hpp
/// \brief Little binary (de)serialization layer for index save/load and for
/// packing messages exchanged through the simulated MPI runtime.

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "annsim/common/error.hpp"

namespace annsim {

/// Appends POD values / vectors to a growable byte buffer.
class BinaryWriter {
 public:
  void reserve(std::size_t bytes) { buf_.reserve(bytes); }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void write(const T& value) {
    const auto* p = reinterpret_cast<const std::byte*>(&value);
    buf_.insert(buf_.end(), p, p + sizeof(T));
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void write_span(std::span<const T> values) {
    write(static_cast<std::uint64_t>(values.size()));
    if (values.empty()) return;  // empty spans may carry a null data()
    const auto* p = reinterpret_cast<const std::byte*>(values.data());
    buf_.insert(buf_.end(), p, p + values.size_bytes());
  }

  template <typename T>
  void write_vector(const std::vector<T>& v) {
    write_span(std::span<const T>(v));
  }

  void write_string(const std::string& s) {
    write_span(std::span<const char>(s.data(), s.size()));
  }

  [[nodiscard]] const std::vector<std::byte>& bytes() const noexcept { return buf_; }
  [[nodiscard]] std::vector<std::byte> take() noexcept { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

 private:
  std::vector<std::byte> buf_;
};

/// Reads POD values back out of a byte buffer, bounds-checked.
class BinaryReader {
 public:
  explicit BinaryReader(std::span<const std::byte> bytes) noexcept : bytes_(bytes) {}

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T read() {
    ANNSIM_CHECK_MSG(pos_ + sizeof(T) <= bytes_.size(), "BinaryReader underflow");
    T value;
    std::memcpy(&value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> read_vector() {
    const auto n = read<std::uint64_t>();
    // Divide rather than multiply: a corrupt length must not wrap the check.
    ANNSIM_CHECK_MSG(n <= remaining() / sizeof(T), "BinaryReader underflow");
    std::vector<T> out(n);
    if (n != 0) {  // avoid zero-length memcpy from a null/end pointer
      std::memcpy(out.data(), bytes_.data() + pos_, n * sizeof(T));
      pos_ += n * sizeof(T);
    }
    return out;
  }

  /// Copy exactly `out.size()` elements into caller-owned storage (no
  /// length prefix, no allocation) — pairs with a preceding size read.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void read_into(std::span<T> out) {
    ANNSIM_CHECK_MSG(pos_ + out.size_bytes() <= bytes_.size(),
                     "BinaryReader underflow");
    if (!out.empty()) {
      std::memcpy(out.data(), bytes_.data() + pos_, out.size_bytes());
      pos_ += out.size_bytes();
    }
  }

  std::string read_string() {
    auto chars = read_vector<char>();
    return {chars.begin(), chars.end()};
  }

  [[nodiscard]] bool exhausted() const noexcept { return pos_ == bytes_.size(); }
  [[nodiscard]] std::size_t remaining() const noexcept { return bytes_.size() - pos_; }

 private:
  std::span<const std::byte> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace annsim
