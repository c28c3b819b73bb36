#include "common/codec.h"

#include <cstring>

namespace phoenix {

void Encoder::PutU16(uint16_t v) {
  PutU8(static_cast<uint8_t>(v));
  PutU8(static_cast<uint8_t>(v >> 8));
}

void Encoder::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) PutU8(static_cast<uint8_t>(v >> (8 * i)));
}

void Encoder::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) PutU8(static_cast<uint8_t>(v >> (8 * i)));
}

void Encoder::PatchU64(size_t at, uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_[at + i] = static_cast<char>(v >> (8 * i));
}

void Encoder::PutDouble(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void Encoder::PutString(const std::string& s) {
  PutU32(static_cast<uint32_t>(s.size()));
  buf_.append(s);
}

void Encoder::PutValue(const Value& v) {
  PutU8(static_cast<uint8_t>(v.type()));
  PutBool(v.is_null());
  if (v.is_null()) return;
  switch (v.type()) {
    case DataType::kBool: PutBool(v.AsBool()); break;
    case DataType::kInt32: PutI32(v.AsInt32()); break;
    case DataType::kInt64: PutI64(v.AsInt64()); break;
    case DataType::kDouble: PutDouble(v.AsDouble()); break;
    case DataType::kString: PutString(v.AsString()); break;
    case DataType::kDate: PutI32(v.AsInt32()); break;
  }
}

void Encoder::PutRow(const Row& row) {
  PutU32(static_cast<uint32_t>(row.size()));
  for (const Value& v : row) PutValue(v);
}

void Encoder::PutSchema(const Schema& schema) {
  PutU32(static_cast<uint32_t>(schema.num_columns()));
  for (const Column& c : schema.columns()) {
    PutString(c.name);
    PutU8(static_cast<uint8_t>(c.type));
    PutBool(c.nullable);
  }
}

Result<uint8_t> Decoder::GetU8() {
  PHX_RETURN_IF_ERROR(Need(1));
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<uint16_t> Decoder::GetU16() {
  PHX_RETURN_IF_ERROR(Need(2));
  uint16_t v = 0;
  for (int i = 0; i < 2; ++i) {
    v |= static_cast<uint16_t>(static_cast<uint8_t>(data_[pos_++])) << (8 * i);
  }
  return v;
}

Result<uint32_t> Decoder::GetU32() {
  PHX_RETURN_IF_ERROR(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_++])) << (8 * i);
  }
  return v;
}

Result<uint64_t> Decoder::GetU64() {
  PHX_RETURN_IF_ERROR(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_++])) << (8 * i);
  }
  return v;
}

Result<int32_t> Decoder::GetI32() {
  PHX_ASSIGN_OR_RETURN(uint32_t v, GetU32());
  return static_cast<int32_t>(v);
}

Result<int64_t> Decoder::GetI64() {
  PHX_ASSIGN_OR_RETURN(uint64_t v, GetU64());
  return static_cast<int64_t>(v);
}

Result<double> Decoder::GetDouble() {
  PHX_ASSIGN_OR_RETURN(uint64_t bits, GetU64());
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

Result<std::string> Decoder::GetString() {
  PHX_ASSIGN_OR_RETURN(uint32_t n, GetU32());
  PHX_RETURN_IF_ERROR(Need(n));
  std::string s(data_ + pos_, n);
  pos_ += n;
  return s;
}

Result<std::string_view> Decoder::GetBytes(size_t n) {
  PHX_RETURN_IF_ERROR(Need(n));
  std::string_view bytes(data_ + pos_, n);
  pos_ += n;
  return bytes;
}

Result<bool> Decoder::GetBool() {
  PHX_ASSIGN_OR_RETURN(uint8_t v, GetU8());
  return v != 0;
}

Result<Value> Decoder::GetValue() {
  PHX_ASSIGN_OR_RETURN(uint8_t type_raw, GetU8());
  if (type_raw > static_cast<uint8_t>(DataType::kDate)) {
    return Status::IoError("bad value type tag");
  }
  DataType type = static_cast<DataType>(type_raw);
  PHX_ASSIGN_OR_RETURN(bool null, GetBool());
  if (null) return Value::Null(type);
  switch (type) {
    case DataType::kBool: {
      PHX_ASSIGN_OR_RETURN(bool b, GetBool());
      return Value::Bool(b);
    }
    case DataType::kInt32: {
      PHX_ASSIGN_OR_RETURN(int32_t v, GetI32());
      return Value::Int32(v);
    }
    case DataType::kInt64: {
      PHX_ASSIGN_OR_RETURN(int64_t v, GetI64());
      return Value::Int64(v);
    }
    case DataType::kDouble: {
      PHX_ASSIGN_OR_RETURN(double v, GetDouble());
      return Value::Double(v);
    }
    case DataType::kString: {
      PHX_ASSIGN_OR_RETURN(std::string v, GetString());
      return Value::String(std::move(v));
    }
    case DataType::kDate: {
      PHX_ASSIGN_OR_RETURN(int32_t v, GetI32());
      return Value::Date(v);
    }
  }
  return Status::IoError("bad value type tag");
}

Result<Row> Decoder::GetRow() {
  PHX_ASSIGN_OR_RETURN(uint32_t n, GetU32());
  if (n > remaining()) return Status::IoError("row count exceeds input");
  Row row;
  row.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    PHX_ASSIGN_OR_RETURN(Value v, GetValue());
    row.push_back(std::move(v));
  }
  return row;
}

Result<Schema> Decoder::GetSchema() {
  PHX_ASSIGN_OR_RETURN(uint32_t n, GetU32());
  if (n > remaining()) return Status::IoError("column count exceeds input");
  std::vector<Column> cols;
  cols.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Column c;
    PHX_ASSIGN_OR_RETURN(c.name, GetString());
    PHX_ASSIGN_OR_RETURN(uint8_t type_raw, GetU8());
    if (type_raw > static_cast<uint8_t>(DataType::kDate)) {
      return Status::IoError("bad column type tag");
    }
    c.type = static_cast<DataType>(type_raw);
    PHX_ASSIGN_OR_RETURN(c.nullable, GetBool());
    cols.push_back(std::move(c));
  }
  return Schema(std::move(cols));
}

}  // namespace phoenix
