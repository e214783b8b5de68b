#include "object/replicated_object.h"

namespace cbc::object {

Op nop(std::uint64_t tag) {
  Writer writer;
  writer.u64(tag);
  return Op{"nop", writer.take()};
}

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

}  // namespace cbc::object
