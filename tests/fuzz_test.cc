// Robustness fuzzing: random bytes against every decoder, random text
// against the SQL front-end, and LIKE checked against a reference matcher.
// The library must never crash and never accept corrupt input silently.

#include <algorithm>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/rng.h"
#include "engine/expression.h"
#include "net/framing.h"
#include "net/protocol.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "storage/wal.h"

#include "gtest/gtest.h"

namespace phoenix {
namespace {

std::string RandomBytes(Rng* rng, size_t max_len) {
  std::string s;
  size_t n = rng->NextBelow(max_len);
  s.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    s.push_back(static_cast<char>(rng->NextBelow(256)));
  }
  return s;
}

TEST(Fuzz, DecoderNeverCrashesOnGarbage) {
  Rng rng(0xC0DEC);
  for (int iter = 0; iter < 3000; ++iter) {
    std::string bytes = RandomBytes(&rng, 64);
    Decoder dec(bytes);
    // Exercise every getter in sequence until one fails.
    while (!dec.AtEnd()) {
      switch (rng.NextBelow(6)) {
        case 0: if (!dec.GetU8().ok()) goto next; break;
        case 1: if (!dec.GetU64().ok()) goto next; break;
        case 2: if (!dec.GetString().ok()) goto next; break;
        case 3: if (!dec.GetValue().ok()) goto next; break;
        case 4: if (!dec.GetRow().ok()) goto next; break;
        default: if (!dec.GetSchema().ok()) goto next; break;
      }
    }
  next:;
  }
  SUCCEED();
}

TEST(Fuzz, ProtocolDecodersRejectGarbageGracefully) {
  Rng rng(0xBEEF);
  int request_ok = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    std::string bytes = RandomBytes(&rng, 96);
    auto req = net::Request::Decode(bytes);
    auto resp = net::Response::Decode(bytes);
    if (req.ok()) ++request_ok;
    (void)resp;
  }
  // Nearly all random inputs must be rejected (tiny accidental accepts are
  // possible because the format is not self-describing beyond tags).
  EXPECT_LT(request_ok, 300);
}

TEST(Fuzz, FrameAssemblerReassemblesArbitraryChunkings) {
  // Property: for any sequence of valid frames and ANY chunking of the byte
  // stream (one byte at a time, everything at once, random cuts), the
  // assembler reproduces exactly the frames that were encoded, in order,
  // with zero resync.
  Rng rng(0xF4A3E);
  for (int iter = 0; iter < 400; ++iter) {
    size_t n_frames = 1 + rng.NextBelow(6);
    std::vector<net::Frame> sent;
    std::string wire;
    for (size_t i = 0; i < n_frames; ++i) {
      net::Frame f;
      f.type = static_cast<net::FrameType>(1 + rng.NextBelow(2));
      f.corr_id = rng.Next();
      f.payload = RandomBytes(&rng, 200);  // frames carry arbitrary bytes
      wire += net::EncodeFrame(f.type, f.corr_id, f.payload);
      sent.push_back(std::move(f));
    }

    net::FrameAssembler a;
    std::vector<net::Frame> got;
    size_t pos = 0;
    while (pos < wire.size()) {
      size_t chunk = 1 + rng.NextBelow(64);
      chunk = std::min(chunk, wire.size() - pos);
      a.Feed(wire.data() + pos, chunk);
      pos += chunk;
      net::Frame f;
      while (a.Poll(&f) == net::FrameAssembler::Next::kFrame) {
        got.push_back(f);
      }
    }
    ASSERT_EQ(got.size(), sent.size()) << "iter " << iter;
    for (size_t i = 0; i < sent.size(); ++i) {
      EXPECT_EQ(got[i].type, sent[i].type);
      EXPECT_EQ(got[i].corr_id, sent[i].corr_id);
      EXPECT_EQ(got[i].payload, sent[i].payload);
    }
    EXPECT_EQ(a.resync_bytes_skipped(), 0u) << "iter " << iter;
  }
}

TEST(Fuzz, FrameAssemblerSurvivesGarbageInjection) {
  // Random garbage spliced between valid frames: the assembler must either
  // resync past it or (for magic-tagged oversized headers) go fatal — but
  // never crash, hang, or emit a frame that was never sent. Valid frames
  // AFTER the garbage must still be recovered whenever the stream is not
  // fatal, and garbage can only ever eat forward into later frames, never
  // resurrect earlier ones.
  Rng rng(0x6A43A6E);
  for (int iter = 0; iter < 400; ++iter) {
    std::string wire;
    size_t n_frames = 1 + rng.NextBelow(4);
    std::vector<std::string> payloads;
    for (size_t i = 0; i < n_frames; ++i) {
      std::string payload = RandomBytes(&rng, 64);
      payloads.push_back(payload);
      if (rng.NextBelow(2) == 0) {
        wire += RandomBytes(&rng, 40);  // garbage before this frame
      }
      wire += net::EncodeFrame(net::FrameType::kRequest, i + 1, payload);
    }

    net::FrameAssembler a;
    std::vector<net::Frame> got;
    bool fatal = false;
    size_t pos = 0;
    while (pos < wire.size() && !fatal) {
      size_t chunk = std::min<size_t>(1 + rng.NextBelow(48), wire.size() - pos);
      a.Feed(wire.data() + pos, chunk);
      pos += chunk;
      net::Frame f;
      for (;;) {
        auto next = a.Poll(&f);
        if (next == net::FrameAssembler::Next::kFrame) {
          got.push_back(f);
          continue;
        }
        if (next == net::FrameAssembler::Next::kError) fatal = true;
        break;
      }
    }

    // Every emitted frame must be one we actually encoded, in order: garbage
    // may swallow frames (by consuming their header bytes during resync) but
    // must never invent or reorder them.
    size_t cursor = 0;
    for (const auto& f : got) {
      bool matched = false;
      while (cursor < n_frames) {
        ++cursor;
        if (f.corr_id == cursor && f.payload == payloads[cursor - 1]) {
          matched = true;
          break;
        }
      }
      ASSERT_TRUE(matched) << "iter " << iter << ": assembler emitted a frame "
                           << "(corr_id " << f.corr_id
                           << ") that was never sent, or out of order";
    }
    if (fatal) {
      EXPECT_FALSE(a.error().empty());
    }
  }
}

TEST(Fuzz, FrameAssemblerSingleByteCorruptionNeverCrashes) {
  // Flip one byte anywhere in a two-frame stream. The assembler may emit
  // 0, 1, or 2 frames, resync, or go fatal — but never crash and never emit
  // a frame whose payload doesn't match one of the originals.
  Rng rng(0xC0A4A97);
  for (int iter = 0; iter < 600; ++iter) {
    std::string p1 = RandomBytes(&rng, 48), p2 = RandomBytes(&rng, 48);
    std::string wire = net::EncodeFrame(net::FrameType::kRequest, 1, p1) +
                       net::EncodeFrame(net::FrameType::kResponse, 2, p2);
    size_t victim = rng.NextBelow(wire.size());
    char orig = wire[victim];
    char flip;
    do {
      flip = static_cast<char>(rng.NextBelow(256));
    } while (flip == orig);
    wire[victim] = flip;
    // What each frame's payload bytes look like post-corruption (the flip may
    // have landed inside one of them).
    std::string cp1 = wire.substr(net::kFrameHeaderSize, p1.size());
    std::string cp2 = wire.substr(2 * net::kFrameHeaderSize + p1.size());

    net::FrameAssembler a;
    a.Feed(wire);
    net::Frame f;
    int emitted = 0;
    for (;;) {
      auto next = a.Poll(&f);
      if (next != net::FrameAssembler::Next::kFrame) break;
      ++emitted;
      ASSERT_LE(emitted, 2);
      // A corrupted length field can graft the two frames together, so only
      // check frames whose header survived intact.
      if (f.corr_id == 1 && f.payload.size() == p1.size()) {
        EXPECT_EQ(f.payload, cp1);
      }
      if (f.corr_id == 2 && f.payload.size() == p2.size()) {
        EXPECT_EQ(f.payload, cp2);
      }
    }
  }
}

TEST(Fuzz, WalReaderToleratesArbitraryFileContents) {
  Rng rng(0x11AB);
  for (int iter = 0; iter < 500; ++iter) {
    storage::SimDisk disk;
    ASSERT_TRUE(disk.Append("w.wal", RandomBytes(&rng, 256)).ok());
    ASSERT_TRUE(disk.Sync("w.wal").ok());
    auto records = storage::WalReader::ReadAll(disk, "w.wal");
    ASSERT_TRUE(records.ok());  // garbage = empty/short log, never an error
  }
}

TEST(Fuzz, ParserNeverCrashesOnRandomTokens) {
  Rng rng(0x9A45E);
  const char* vocab[] = {"SELECT", "FROM",  "WHERE", "INSERT", "INTO",
                         "VALUES", "(",     ")",     ",",      "*",
                         "=",      "'x'",   "1",     "2.5",    "t",
                         "a",      "AND",   "OR",    "GROUP",  "BY",
                         "ORDER",  "CASE",  "WHEN",  "THEN",   "END",
                         ";",      "@p",    "NULL",  "LIKE",   "IN"};
  for (int iter = 0; iter < 4000; ++iter) {
    std::string text;
    size_t n = 1 + rng.NextBelow(20);
    for (size_t i = 0; i < n; ++i) {
      text += vocab[rng.NextBelow(sizeof(vocab) / sizeof(vocab[0]))];
      text += " ";
    }
    auto r = sql::Parser::ParseScript(text);
    if (r.ok()) {
      // Whatever parses must re-emit parseable SQL (ToSql closure).
      for (const auto& stmt : *r) {
        auto again = sql::Parser::ParseStatement(stmt->ToSql());
        ASSERT_TRUE(again.ok()) << text << " => " << stmt->ToSql();
      }
    }
  }
}

TEST(Fuzz, LexerNeverCrashesOnRandomBytes) {
  Rng rng(0x1E4);
  for (int iter = 0; iter < 3000; ++iter) {
    auto r = sql::Lex(RandomBytes(&rng, 80));
    (void)r;
  }
  SUCCEED();
}

// Reference LIKE matcher: recursive, obviously correct, exponential — only
// for small fuzz inputs.
bool RefLike(const std::string& t, size_t ti, const std::string& p,
             size_t pi) {
  if (pi == p.size()) return ti == t.size();
  if (p[pi] == '%') {
    for (size_t skip = ti; skip <= t.size(); ++skip) {
      if (RefLike(t, skip, p, pi + 1)) return true;
    }
    return false;
  }
  if (ti == t.size()) return false;
  if (p[pi] == '_' || std::toupper(static_cast<unsigned char>(p[pi])) ==
                          std::toupper(static_cast<unsigned char>(t[ti]))) {
    return RefLike(t, ti + 1, p, pi + 1);
  }
  return false;
}

TEST(Fuzz, LikeMatchAgreesWithReferenceProperty) {
  Rng rng(0x717E);
  const char alphabet[] = {'a', 'b', '%', '_'};
  for (int iter = 0; iter < 20000; ++iter) {
    std::string text;
    for (size_t i = rng.NextBelow(8); i > 0; --i) {
      text.push_back(static_cast<char>('a' + rng.NextBelow(3)));
    }
    std::string pattern;
    for (size_t i = rng.NextBelow(8); i > 0; --i) {
      pattern.push_back(alphabet[rng.NextBelow(4)]);
    }
    ASSERT_EQ(eng::LikeMatch(text, pattern), RefLike(text, 0, pattern, 0))
        << "text='" << text << "' pattern='" << pattern << "'";
  }
}

TEST(Fuzz, ValueCastTotalityProperty) {
  Rng rng(0xCA57);
  for (int iter = 0; iter < 5000; ++iter) {
    Value v;
    switch (rng.NextBelow(6)) {
      case 0: v = Value::Null(static_cast<DataType>(rng.NextBelow(6))); break;
      case 1: v = Value::Bool(rng.NextBool()); break;
      case 2: v = Value::Int32(static_cast<int32_t>(rng.Next())); break;
      case 3: v = Value::Int64(static_cast<int64_t>(rng.Next())); break;
      case 4: v = Value::Double(rng.NextDouble() * 1e9 - 5e8); break;
      default: v = Value::String(rng.NextString(rng.NextBelow(12))); break;
    }
    DataType target = static_cast<DataType>(rng.NextBelow(6));
    auto cast = v.CastTo(target);
    if (cast.ok() && !cast->is_null()) {
      ASSERT_EQ(cast->type(), target);
    }
    // ToString never crashes and is parseable as an expression literal.
    std::string lit = v.ToString();
    auto parsed = sql::Parser::ParseExpression(lit);
    ASSERT_TRUE(parsed.ok()) << lit;
  }
}

}  // namespace
}  // namespace phoenix
