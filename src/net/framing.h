#ifndef PHOENIX_NET_FRAMING_H_
#define PHOENIX_NET_FRAMING_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace phoenix::net {

/// Stream framing for the socket transport. A TCP or Unix-domain stream
/// delivers an arbitrary byte soup — one send may arrive as many reads,
/// many sends as one read — so every protocol message travels inside a
/// self-describing frame:
///
///   offset  size  field
///   ------  ----  -----------------------------------------------
///        0     4  magic 0x50485846 ("PHXF"), little-endian
///        4     1  type (FrameType below)
///        5     8  correlation id, little-endian
///       13     4  payload length N, little-endian
///       17     N  payload (a Request / Response encoding)
///
/// The correlation id is how a reply finds its waiter: it equals the
/// Request's request_id. The payload codecs stay byte-identical to the
/// in-process transport — the frame is purely the stream-chunking layer
/// underneath them. Every other type byte — 3 and 4 included, the retired
/// batch frames — cannot start a frame and is skipped by the resync rule
/// below.
enum class FrameType : uint8_t {
  kRequest = 1,
  kResponse = 2,
};

struct Frame {
  FrameType type = FrameType::kRequest;
  uint64_t corr_id = 0;
  std::string payload;
};

constexpr uint32_t kFrameMagic = 0x50485846;  ///< "PHXF"
constexpr size_t kFrameHeaderSize = 4 + 1 + 8 + 4;
/// Upper bound on a single frame's payload. Large result sets ship as many
/// fetch blocks, so any frame near this size is a corrupt length field, not
/// a real message; accepting it would let 4 garbage bytes demand a 4 GiB
/// allocation.
constexpr size_t kMaxFramePayload = 64ull * 1024 * 1024;

/// Serializes one frame (header + payload) ready for send().
std::string EncodeFrame(FrameType type, uint64_t corr_id,
                        const std::string& payload);

/// Incremental frame reassembly over an arbitrary chunking of the stream.
/// Feed() whatever recv() returned — a partial header, half a payload,
/// three frames glued together — then drain complete frames with Poll().
///
/// Robustness rules (exercised by the wire fuzz battery):
///  - a byte position that cannot start a frame (magic mismatch, unknown
///    type) is skipped and scanning resumes at the next byte — the
///    garbage-prefix resync that lets a reader survive a peer's partial
///    final write from before a crash;
///  - a header whose length field exceeds max_payload is fatal (kError):
///    the bytes ARE magic-tagged, so the peer is either corrupt or hostile,
///    and resyncing into a 64 MiB "frame" would stall the connection.
///
/// Not thread-safe; each connection reader owns one assembler.
class FrameAssembler {
 public:
  explicit FrameAssembler(size_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  void Feed(const char* data, size_t n) { buf_.append(data, n); }
  void Feed(const std::string& data) { buf_.append(data); }

  enum class Next {
    kFrame,     ///< *out holds a complete frame
    kNeedMore,  ///< buffer holds no complete frame; Feed() more bytes
    kError,     ///< unrecoverable framing violation; close the connection
  };

  /// Extracts the next complete frame, resyncing past garbage as needed.
  Next Poll(Frame* out);

  /// Bytes discarded while hunting for a frame boundary (0 on a clean
  /// stream; nonzero means the peer wrote garbage or died mid-frame).
  uint64_t resync_bytes_skipped() const { return resync_bytes_skipped_; }
  /// Set after Poll() returns kError.
  const std::string& error() const { return error_; }

 private:
  size_t max_payload_;
  std::string buf_;
  uint64_t resync_bytes_skipped_ = 0;
  std::string error_;
  bool fatal_ = false;
};

}  // namespace phoenix::net

#endif  // PHOENIX_NET_FRAMING_H_
