// Hand-built OSend wire frames, for tests that hand a member bytes no
// OSendMember wrote: fuzzed, truncated or foreign frames.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "causal/envelope.h"
#include "graph/dep_spec.h"
#include "graph/message_id.h"
#include "util/serde.h"

namespace cbc::testkit {

/// The frame `id.sender` broadcasts for a message with no dependencies and
/// an empty payload, laid out as OSendMember::broadcast lays it out: the
/// envelope section alone.
inline std::vector<std::uint8_t> osend_frame(MessageId id,
                                             std::string_view label) {
  Writer writer;
  Envelope::encode_section(writer, id, label, DepSpec::none(), /*sent_at=*/0,
                           {});
  return writer.take();
}

}  // namespace cbc::testkit
