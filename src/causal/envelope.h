// Envelope — the immutable, refcounted unit every discipline broadcasts.
//
// An envelope is one application message plus its ordering header
// (id, label, Occurs_After set, send time), encoded ONCE into a shared
// frame. Every discipline's wire format is
//
//     [discipline prelude][envelope section]
//
// where the prelude carries discipline-specific state (CBCAST's vector
// timestamp, ASend's round number, the sequencer's global stamp; OSend
// has none, its frame is the section alone) and the envelope section is
// this shared codec. Senders append the section to their frame; receivers parse
// it in place. The payload is never copied after encoding: hold-back
// queues, the delivery log, and application callbacks all see spans into
// the same refcounted frame (see util/buffer.h for the instrumentation
// that enforces this).
//
// Envelope section wire layout (little-endian, via util/serde):
//
//     MessageId   id        (u32 sender, u64 seq)
//     str         label     (u32 length + bytes)
//     DepSpec     deps      (u32 count + count * MessageId)
//     i64         sent_at   (transport time at broadcast)
//     blob        payload   (u32 length + bytes)
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "graph/dep_spec.h"
#include "graph/message_id.h"
#include "util/buffer.h"
#include "util/serde.h"
#include "util/types.h"

namespace cbc {

/// One immutable message. Copying an Envelope bumps a refcount; the frame
/// bytes and decoded header are shared and never duplicated.
class Envelope {
 public:
  Envelope() = default;

  /// True when this envelope holds a message (default-constructed
  /// envelopes are null placeholders, e.g. an ASend SKIP frame).
  [[nodiscard]] bool valid() const { return rec_ != nullptr; }

  /// Encodes the canonical envelope section at the writer's current
  /// position. The caller then finishes the frame with take_shared() and
  /// recovers the Envelope with parse(frame, section_offset).
  static void encode_section(Writer& writer, MessageId id,
                             std::string_view label, const DepSpec& deps,
                             SimTime sent_at,
                             std::span<const std::uint8_t> payload);

  /// Parses the envelope section starting at `offset` within `frame`,
  /// sharing the frame bytes (payload is a view, not a copy). Throws
  /// SerdeError on malformed input.
  static Envelope parse(SharedBuffer frame, std::size_t offset);

  [[nodiscard]] const MessageId& id() const { return rec().id; }
  [[nodiscard]] NodeId sender() const { return rec().id.sender; }
  [[nodiscard]] const std::string& label() const { return rec().label; }
  [[nodiscard]] const DepSpec& deps() const { return rec().deps; }
  [[nodiscard]] SimTime sent_at() const { return rec().sent_at; }

  /// The application payload — a view into the shared frame.
  [[nodiscard]] std::span<const std::uint8_t> payload() const;

  /// The encoded envelope section — spliced verbatim into a new frame by
  /// re-framing layers (the sequencer's ordered broadcast, ASend's round
  /// contribution).
  [[nodiscard]] std::span<const std::uint8_t> section_bytes() const;

  /// The whole frame this envelope lives in (prelude + section).
  [[nodiscard]] const SharedBuffer& frame() const { return rec().frame; }

 private:
  struct Record {
    MessageId id;
    std::string label;
    DepSpec deps;
    SimTime sent_at = 0;
    SharedBuffer frame;
    std::size_t section_offset = 0;
    std::size_t section_length = 0;
    std::size_t payload_offset = 0;
    std::size_t payload_length = 0;
  };

  explicit Envelope(std::shared_ptr<const Record> rec) : rec_(std::move(rec)) {}

  [[nodiscard]] const Record& rec() const;

  std::shared_ptr<const Record> rec_;
};

}  // namespace cbc
