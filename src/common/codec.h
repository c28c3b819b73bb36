#ifndef PHOENIX_COMMON_CODEC_H_
#define PHOENIX_COMMON_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "common/value.h"

namespace phoenix {

/// Append-only (save PatchU64) little-endian byte encoder. Shared by the WAL,
/// the checkpoint writer, and the wire protocol so that every durable or
/// transmitted byte goes through one audited code path.
class Encoder {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  /// Overwrites the 8 bytes an earlier PutU64 wrote at offset `at`.
  void PatchU64(size_t at, uint64_t v);
  void PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutDouble(double v);
  void PutString(const std::string& s);
  void PutBool(bool b) { PutU8(b ? 1 : 0); }
  void PutValue(const Value& v);
  void PutRow(const Row& row);
  void PutSchema(const Schema& schema);
  void PutBytes(const char* data, size_t n) { buf_.append(data, n); }

  const std::string& data() const { return buf_; }
  std::string Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

/// Cursor-style decoder over a byte span. All getters fail (rather than
/// crash) on truncated input — WAL tails after a crash are routinely torn.
class Decoder {
 public:
  Decoder(const char* data, size_t size) : data_(data), size_(size) {}
  explicit Decoder(std::string_view s) : Decoder(s.data(), s.size()) {}

  Result<uint8_t> GetU8();
  Result<uint16_t> GetU16();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<int32_t> GetI32();
  Result<int64_t> GetI64();
  Result<double> GetDouble();
  Result<std::string> GetString();
  Result<bool> GetBool();
  Result<Value> GetValue();
  Result<Row> GetRow();
  Result<Schema> GetSchema();
  /// The next `n` bytes, uncopied; the view lives as long as the input.
  Result<std::string_view> GetBytes(size_t n);
  /// Everything not yet consumed, without consuming it.
  std::string_view Rest() const { return {data_ + pos_, size_ - pos_}; }

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ >= size_; }
  size_t position() const { return pos_; }

 private:
  Status Need(size_t n) const {
    if (n > size_ - pos_) return Status::IoError("truncated input");
    return Status::Ok();
  }
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace phoenix

#endif  // PHOENIX_COMMON_CODEC_H_
