#include "net/framing.h"

namespace phoenix::net {

namespace {

uint32_t LoadU32(const char* p) {
  return static_cast<uint32_t>(static_cast<uint8_t>(p[0])) |
         static_cast<uint32_t>(static_cast<uint8_t>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(p[3])) << 24;
}

uint64_t LoadU64(const char* p) {
  return static_cast<uint64_t>(LoadU32(p)) |
         static_cast<uint64_t>(LoadU32(p + 4)) << 32;
}

void StoreU32(uint32_t v, std::string* out) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 24) & 0xff));
}

bool ValidType(uint8_t t) {
  return t >= static_cast<uint8_t>(FrameType::kRequest) &&
         t <= static_cast<uint8_t>(FrameType::kResponse);
}

}  // namespace

std::string EncodeFrame(FrameType type, uint64_t corr_id,
                        const std::string& payload) {
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  StoreU32(kFrameMagic, &out);
  out.push_back(static_cast<char>(type));
  StoreU32(static_cast<uint32_t>(corr_id & 0xffffffffull), &out);
  StoreU32(static_cast<uint32_t>(corr_id >> 32), &out);
  StoreU32(static_cast<uint32_t>(payload.size()), &out);
  out.append(payload);
  return out;
}

FrameAssembler::Next FrameAssembler::Poll(Frame* out) {
  if (fatal_) return Next::kError;
  // Hunt for a byte position that can start a frame. On a clean stream the
  // very first position matches and the loop body runs once.
  size_t skipped = 0;
  while (true) {
    if (buf_.size() - skipped < kFrameHeaderSize) break;  // header incomplete
    const char* p = buf_.data() + skipped;
    if (LoadU32(p) != kFrameMagic || !ValidType(static_cast<uint8_t>(p[4]))) {
      // Not a frame boundary: garbage prefix, or the tail of a frame whose
      // head we never saw. Slide one byte and keep scanning.
      ++skipped;
      continue;
    }
    uint64_t len = LoadU32(p + 13);
    if (len > max_payload_) {
      // A magic-tagged header demanding an absurd payload: corrupt or
      // hostile peer. Resyncing would stall the stream for up to `len`
      // bytes, so this is fatal for the connection.
      fatal_ = true;
      error_ = "oversized frame: " + std::to_string(len) + " bytes (max " +
               std::to_string(max_payload_) + ")";
      buf_.clear();
      return Next::kError;
    }
    if (buf_.size() - skipped < kFrameHeaderSize + len) break;  // payload short
    out->type = static_cast<FrameType>(static_cast<uint8_t>(p[4]));
    out->corr_id = LoadU64(p + 5);
    out->payload.assign(p + kFrameHeaderSize, len);
    buf_.erase(0, skipped + kFrameHeaderSize + len);
    resync_bytes_skipped_ += skipped;
    return Next::kFrame;
  }
  // No complete frame. Discard the scanned garbage now so it is not
  // re-scanned on the next Feed, but keep the (possibly partial) header.
  if (skipped > 0) {
    buf_.erase(0, skipped);
    resync_bytes_skipped_ += skipped;
  }
  return Next::kNeedMore;
}

}  // namespace phoenix::net
