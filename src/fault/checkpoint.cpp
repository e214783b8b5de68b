#include "fault/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "util/ensure.h"

namespace cbc::fault {

void Checkpoint::encode(Writer& writer) const {
  writer.u32(kMagic);
  writer.u32(kVersion);
  writer.u64(node);
  writer.u64(cycles);
  writer.u64_vec(stable_digests);
  last_sync.encode(writer);
  frontier.encode(writer);
  writer.blob(app_state);
}

Checkpoint Checkpoint::decode(Reader& reader) {
  const std::uint32_t magic = reader.u32();
  require(magic == kMagic, "Checkpoint: bad magic");
  const std::uint32_t version = reader.u32();
  require(version == kVersion,
          "Checkpoint: unsupported version " + std::to_string(version));
  Checkpoint checkpoint;
  checkpoint.node = static_cast<NodeId>(reader.u64());
  checkpoint.cycles = reader.u64();
  checkpoint.stable_digests = reader.u64_vec();
  checkpoint.last_sync = MessageId::decode(reader);
  checkpoint.frontier = VectorClock::decode(reader);
  checkpoint.app_state = reader.blob();
  require(checkpoint.stable_digests.size() ==
              std::min<std::uint64_t>(checkpoint.cycles,
                                      DigestWindow::kCapacity),
          "Checkpoint: digest window does not match the cycle count");
  return checkpoint;
}

void Checkpoint::save(const std::string& path) const {
  Writer writer;
  encode(writer);
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  require(out.good(), "Checkpoint: cannot write '" + tmp + "'");
  out.write(reinterpret_cast<const char*>(writer.bytes().data()),
            static_cast<std::streamsize>(writer.size()));
  // A checkpoint this small sits in the stream buffer until the close
  // flushes it, so a full disk shows only here. The previous file stays.
  out.close();
  if (!out || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    require(false, "Checkpoint: cannot replace '" + path + "' with '" + tmp +
                       "' (short write or failed rename)");
  }
}

Checkpoint Checkpoint::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  require(in.good(), "Checkpoint: cannot read '" + path + "'");
  std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
  Reader reader(bytes);
  Checkpoint checkpoint = decode(reader);
  require(reader.exhausted(), "Checkpoint: trailing bytes in '" + path + "'");
  return checkpoint;
}

}  // namespace cbc::fault
