// Unit tests for the common kernel: Status/Result, Value semantics, Schema
// coercion, the byte codec, dates, the deterministic Rng, and the PHX_* env
// loader.

#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/options.h"
#include "common/rng.h"
#include "common/schema.h"
#include "common/status.h"
#include "common/value.h"
#include "engine/database.h"

#include "gtest/gtest.h"

namespace phoenix {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s = Status::CommError("connection reset");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCommError());
  EXPECT_EQ(s.code(), StatusCode::kCommError);
  EXPECT_EQ(s.ToString(), "CommError: connection reset");
}

TEST(Status, PredicatesDiscriminate) {
  EXPECT_TRUE(Status::Timeout("t").IsTimeout());
  EXPECT_FALSE(Status::Timeout("t").IsCommError());
  EXPECT_TRUE(Status::EndOfData().IsEndOfData());
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(Result, HoldsStatus) {
  Result<int> r(Status::NotFound("gone"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  PHX_ASSIGN_OR_RETURN(int h, Half(x));
  PHX_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(Result, MacrosPropagate) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2=3 is odd
}

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

TEST(Value, NullHandling) {
  Value v = Value::Null(DataType::kString);
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), DataType::kString);
  EXPECT_EQ(v.ToString(), "NULL");
}

TEST(Value, NumericCoercionInComparison) {
  EXPECT_EQ(Value::Int32(5).Compare(Value::Int64(5)), 0);
  EXPECT_EQ(Value::Int32(5).Compare(Value::Double(5.0)), 0);
  EXPECT_LT(Value::Int64(4).Compare(Value::Double(4.5)), 0);
  EXPECT_GT(Value::Double(4.6).Compare(Value::Int32(4)), 0);
}

TEST(Value, NullSortsFirst) {
  EXPECT_LT(Value::Null().Compare(Value::Int32(-1000000)), 0);
  EXPECT_GT(Value::Int32(0).Compare(Value::Null()), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null(DataType::kString)), 0);
}

TEST(Value, StringComparison) {
  EXPECT_LT(Value::String("abc").Compare(Value::String("abd")), 0);
  EXPECT_EQ(Value::String("x").Compare(Value::String("x")), 0);
}

TEST(Value, LargeInt64ComparisonIsExact) {
  // Values that would collide if compared as doubles.
  int64_t a = (1LL << 60) + 1;
  int64_t b = (1LL << 60) + 2;
  EXPECT_LT(Value::Int64(a).Compare(Value::Int64(b)), 0);
}

TEST(Value, HashConsistentWithEqualityAcrossNumericTypes) {
  EXPECT_EQ(Value::Int32(7).Hash(), Value::Int64(7).Hash());
  EXPECT_EQ(Value::Int64(7).Hash(), Value::Double(7.0).Hash());
}

TEST(Value, CastToWidens) {
  auto d = Value::Int32(3).CastTo(DataType::kDouble);
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(d->AsDouble(), 3.0);
  auto i = Value::Double(3.9).CastTo(DataType::kInt64);
  ASSERT_TRUE(i.ok());
  EXPECT_EQ(i->AsInt64(), 3);
}

TEST(Value, CastStringToDate) {
  auto v = Value::String("1995-03-15").CastTo(DataType::kDate);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(FormatDate(v->AsInt32()), "1995-03-15");
}

TEST(Value, CastFailsForIncompatible) {
  EXPECT_FALSE(Value::String("abc").CastTo(DataType::kDouble).ok());
  EXPECT_FALSE(Value::String("not-a-date").CastTo(DataType::kDate).ok());
}

TEST(Value, ToStringRendersSqlLiterals) {
  EXPECT_EQ(Value::Int64(42).ToString(), "42");
  EXPECT_EQ(Value::Bool(true).ToString(), "TRUE");
  EXPECT_EQ(Value::String("hi").ToString(), "'hi'");
  EXPECT_EQ(Value::Date(0).ToString(), "DATE '1970-01-01'");
}

// ---------------------------------------------------------------------------
// Dates
// ---------------------------------------------------------------------------

TEST(Date, KnownAnchors) {
  EXPECT_EQ(FormatDate(0), "1970-01-01");
  auto d = ParseDate("1970-01-01");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, 0);
  // 1998-09-02 is TPC-H Q1's cutoff; day number 10471.
  auto q1 = ParseDate("1998-09-02");
  ASSERT_TRUE(q1.ok());
  EXPECT_EQ(FormatDate(*q1), "1998-09-02");
}

TEST(Date, LeapYearHandling) {
  auto feb29 = ParseDate("1996-02-29");
  ASSERT_TRUE(feb29.ok());
  EXPECT_EQ(FormatDate(*feb29), "1996-02-29");
  auto mar1 = ParseDate("1996-03-01");
  ASSERT_TRUE(mar1.ok());
  EXPECT_EQ(*mar1 - *feb29, 1);
}

TEST(Date, RejectsGarbage) {
  EXPECT_FALSE(ParseDate("hello").ok());
  EXPECT_FALSE(ParseDate("1995-13-01").ok());
  EXPECT_FALSE(ParseDate("1995-00-10").ok());
}

// Property: round trip over a broad day range, including pre-1970.
TEST(Date, RoundTripProperty) {
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    int32_t day = static_cast<int32_t>(rng.NextRange(-20000, 40000));
    auto back = ParseDate(FormatDate(day));
    ASSERT_TRUE(back.ok());
    ASSERT_EQ(*back, day) << FormatDate(day);
  }
}

// Property: consecutive day numbers format to strictly increasing dates.
TEST(Date, MonotoneProperty) {
  std::string prev = FormatDate(-1000);
  for (int32_t d = -999; d < 3000; ++d) {
    std::string cur = FormatDate(d);
    ASSERT_LT(prev, cur);
    prev = cur;
  }
}

// ---------------------------------------------------------------------------
// Schema
// ---------------------------------------------------------------------------

Schema TwoColumnSchema() {
  Schema s;
  s.AddColumn(Column{"ID", DataType::kInt32, false});
  s.AddColumn(Column{"NAME", DataType::kString, true});
  return s;
}

TEST(Schema, FindColumnIsCaseInsensitive) {
  Schema s = TwoColumnSchema();
  EXPECT_EQ(s.FindColumn("id"), 0);
  EXPECT_EQ(s.FindColumn("Name"), 1);
  EXPECT_EQ(s.FindColumn("missing"), -1);
}

TEST(Schema, CoerceRowCastsAndChecksNulls) {
  Schema s = TwoColumnSchema();
  Row ok{Value::Int64(7), Value::Null()};
  ASSERT_TRUE(s.CoerceRow(&ok).ok());
  EXPECT_EQ(ok[0].type(), DataType::kInt32);

  Row bad_null{Value::Null(), Value::String("x")};
  EXPECT_EQ(s.CoerceRow(&bad_null).code(), StatusCode::kConstraint);

  Row bad_arity{Value::Int32(1)};
  EXPECT_EQ(s.CoerceRow(&bad_arity).code(), StatusCode::kSqlError);
}

TEST(Schema, ToStringListsColumns) {
  EXPECT_EQ(TwoColumnSchema().ToString(),
            "(ID INTEGER NOT NULL, NAME VARCHAR)");
}

TEST(Ident, CaseInsensitiveEquality) {
  EXPECT_TRUE(IdentEquals("lineitem", "LINEITEM"));
  EXPECT_FALSE(IdentEquals("a", "ab"));
  EXPECT_EQ(IdentUpper("MixedCase_1"), "MIXEDCASE_1");
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

TEST(Codec, ScalarRoundTrip) {
  Encoder enc;
  enc.PutU8(200);
  enc.PutU32(123456789);
  enc.PutU64(0xDEADBEEFCAFEBABEull);
  enc.PutI64(-42);
  enc.PutDouble(3.14159);
  enc.PutString("hello");
  enc.PutBool(true);
  Decoder dec(enc.data());
  EXPECT_EQ(dec.GetU8().value(), 200);
  EXPECT_EQ(dec.GetU32().value(), 123456789u);
  EXPECT_EQ(dec.GetU64().value(), 0xDEADBEEFCAFEBABEull);
  EXPECT_EQ(dec.GetI64().value(), -42);
  EXPECT_DOUBLE_EQ(dec.GetDouble().value(), 3.14159);
  EXPECT_EQ(dec.GetString().value(), "hello");
  EXPECT_TRUE(dec.GetBool().value());
  EXPECT_TRUE(dec.AtEnd());
}

TEST(Codec, TruncatedInputFailsGracefully) {
  Encoder enc;
  enc.PutU64(7);
  Decoder dec(enc.data().data(), 3);  // cut mid-integer
  EXPECT_FALSE(dec.GetU64().ok());
}

TEST(Codec, StringLengthBeyondInputFails) {
  Encoder enc;
  enc.PutU32(1000);  // claims 1000 bytes follow
  Decoder dec(enc.data());
  EXPECT_FALSE(dec.GetString().ok());
}

Value RandomValue(Rng* rng) {
  switch (rng->NextBelow(7)) {
    case 0: return Value::Null(static_cast<DataType>(rng->NextBelow(6)));
    case 1: return Value::Bool(rng->NextBool());
    case 2: return Value::Int32(static_cast<int32_t>(rng->Next()));
    case 3: return Value::Int64(static_cast<int64_t>(rng->Next()));
    case 4: return Value::Double(rng->NextDouble() * 1e6 - 5e5);
    case 5: return Value::String(rng->NextString(rng->NextBelow(40)));
    default: return Value::Date(static_cast<int32_t>(rng->NextRange(0, 30000)));
  }
}

// Property: arbitrary rows survive an encode/decode round trip exactly.
TEST(Codec, RowRoundTripProperty) {
  Rng rng(99);
  for (int iter = 0; iter < 500; ++iter) {
    Row row;
    size_t n = rng.NextBelow(12);
    for (size_t i = 0; i < n; ++i) row.push_back(RandomValue(&rng));
    Encoder enc;
    enc.PutRow(row);
    Decoder dec(enc.data());
    auto back = dec.GetRow();
    ASSERT_TRUE(back.ok());
    ASSERT_EQ(back->size(), row.size());
    for (size_t i = 0; i < row.size(); ++i) {
      ASSERT_EQ(row[i].is_null(), (*back)[i].is_null());
      ASSERT_EQ(row[i].type(), (*back)[i].type());
      if (!row[i].is_null()) {
        ASSERT_EQ(row[i].Compare((*back)[i]), 0) << row[i].ToString();
      }
    }
  }
}

TEST(Codec, SchemaRoundTrip) {
  Schema s;
  s.AddColumn(Column{"A", DataType::kInt64, false});
  s.AddColumn(Column{"B_NAME", DataType::kString, true});
  s.AddColumn(Column{"C", DataType::kDate, true});
  Encoder enc;
  enc.PutSchema(s);
  Decoder dec(enc.data());
  auto back = dec.GetSchema();
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(s == *back);
}

// ---------------------------------------------------------------------------
// Rng / StopWatch
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, RangesRespected) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextRange(-3, 9);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 9);
    double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(StopWatch, MeasuresElapsed) {
  StopWatch w;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  EXPECT_GT(w.ElapsedSeconds(), 0.0);
}

// ---------------------------------------------------------------------------
// Options::FromEnv
// ---------------------------------------------------------------------------

/// Sets PHX_* variables for one test and restores the previous environment
/// (set or unset) on scope exit, so the test leaves no trace on the lane.
class ScopedEnv {
 public:
  ~ScopedEnv() {
    for (const auto& [name, old] : saved_) {
      if (old.has_value()) {
        ::setenv(name.c_str(), old->c_str(), 1);
      } else {
        ::unsetenv(name.c_str());
      }
    }
  }
  void Set(const std::string& name, const std::string& value) {
    if (saved_.count(name) == 0) {
      const char* old = std::getenv(name.c_str());
      saved_[name] = old ? std::optional<std::string>(old) : std::nullopt;
    }
    ::setenv(name.c_str(), value.c_str(), 1);
  }

 private:
  std::map<std::string, std::optional<std::string>> saved_;
};

TEST(Options, FromEnvParsesKnobs) {
  ScopedEnv env;
  env.Set("PHX_CKPT_EVERY", "");         // empty: default
  env.Set("PHX_WORKERS", "");
  env.Set("PHX_RECOVERY_THREADS", "0");  // clamped: replay needs a thread
  env.Set("PHX_TRANSPORT", "carrier-pigeon");  // unknown: fail safe
  env.Set("PHX_ENDPOINTS", "a,,b,");           // empty entries dropped
  env.Set("PHX_RPC_TIMEOUT_MS", "1234");
  Options o = Options::FromEnv();
  EXPECT_EQ(o.checkpoint_every_n_commits, 0u);
  EXPECT_EQ(o.worker_threads, 4u);
  EXPECT_EQ(o.recovery_threads, 1u);
  EXPECT_EQ(o.transport, Transport::kInproc);
  EXPECT_EQ(o.endpoints, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(o.rpc_timeout_ms, 1234u);
  EXPECT_EQ(eng::DatabaseOptions(o).checkpoint_every_n_commits, 0u);

  env.Set("PHX_CKPT_EVERY", "16");
  env.Set("PHX_WORKERS", "2");
  env.Set("PHX_RECOVERY_THREADS", "4");
  env.Set("PHX_TRANSPORT", "tcp");
  o = Options::FromEnv();
  EXPECT_EQ(o.checkpoint_every_n_commits, 16u);
  EXPECT_EQ(o.worker_threads, 2u);
  EXPECT_EQ(o.recovery_threads, 4u);
  EXPECT_EQ(o.transport, Transport::kTcp);
  EXPECT_EQ(eng::DatabaseOptions(o).checkpoint_every_n_commits, 16u);
}

// Thread-count knobs are clamped when parsed; nothing here starts a thread.
TEST(Options, ThreadKnobsDefaultToTheCpusAndAreClamped) {
  ScopedEnv env;
  const uint64_t cpus = AvailableCpus();
  ASSERT_GE(cpus, 1u);
  env.Set("PHX_WORKERS", "");
  env.Set("PHX_RECOVERY_THREADS", "");
  Options o = Options::FromEnv();
  EXPECT_EQ(o.recovery_threads, cpus);  // the default: one per usable CPU
  EXPECT_EQ(o.worker_threads, 4u);

  env.Set("PHX_WORKERS", "18446744073709551615");
  env.Set("PHX_RECOVERY_THREADS", "1000000000");
  o = Options::FromEnv();
  EXPECT_EQ(o.worker_threads, kMaxThreadsPerCpu * cpus);
  EXPECT_EQ(o.recovery_threads, kMaxThreadsPerCpu * cpus);

  env.Set("PHX_WORKERS", "0");
  env.Set("PHX_RECOVERY_THREADS", "1");  // the fully serial path stays
  o = Options::FromEnv();
  EXPECT_EQ(o.worker_threads, 1u);
  EXPECT_EQ(o.recovery_threads, 1u);
}

}  // namespace
}  // namespace phoenix
