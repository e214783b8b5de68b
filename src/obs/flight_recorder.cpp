#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/ensure.h"
#include "util/serde.h"

namespace cbc::obs {

namespace {

// On-disk / in-memory image layout. Everything is a naturally aligned
// little-endian u64 word so writers can use std::atomic_ref and the
// decoder can use the serde Reader on the very same bytes.
//
//   header (64 bytes):
//     [0]  magic "CBCFLT01"
//     [8]  u32 version | u32 node_id
//     [16] u64 capacity (power of two)
//     [24] u64 next     (atomic claim counter)
//     [32] i64 wall_anchor_us
//     [40] u32 role | u32 reserved
//     [48] u64 reserved x2
//   slot (40 bytes each):
//     [0]  u64 stamp    (0 = empty/in-flux, else ticket + 1)
//     [8]  i64 ts_us
//     [16] u64 seq
//     [24] u64 meta     (sender | event << 32)
//     [32] u64 arg
constexpr std::size_t kHeaderSize = 64;
constexpr std::size_t kSlotSize = 40;
constexpr char kMagic[8] = {'C', 'B', 'C', 'F', 'L', 'T', '0', '1'};
constexpr std::uint32_t kVersion = 1;
constexpr std::uint64_t kMaxCapacity = std::uint64_t{1} << 26;
constexpr std::uint8_t kMaxEvent =
    static_cast<std::uint8_t>(FlightEvent::kDupDrop);

std::uint64_t* word_at(unsigned char* base, std::size_t offset) {
  return reinterpret_cast<std::uint64_t*>(base + offset);  // NOLINT
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

std::atomic<FlightRecorder*> g_flight{nullptr};

}  // namespace

const char* flight_event_name(FlightEvent event) {
  switch (event) {
    case FlightEvent::kSubmit:
      return "submit";
    case FlightEvent::kEncode:
      return "encode";
    case FlightEvent::kWireTx:
      return "wire_tx";
    case FlightEvent::kWireRx:
      return "wire_rx";
    case FlightEvent::kHoldEnter:
      return "hold_enter";
    case FlightEvent::kHoldExit:
      return "hold_exit";
    case FlightEvent::kDeliver:
      return "deliver";
    case FlightEvent::kStablePoint:
      return "stable_point";
    case FlightEvent::kKvPark:
      return "kv_park";
    case FlightEvent::kKvDrain:
      return "kv_drain";
    case FlightEvent::kFault:
      return "fault";
    case FlightEvent::kMark:
      return "mark";
    case FlightEvent::kClockOffset:
      return "clock_offset";
    case FlightEvent::kRetransmit:
      return "retransmit";
    case FlightEvent::kDupDrop:
      return "dup_drop";
  }
  return "?";
}

FlightRecorder::FlightRecorder(Options options)
    : options_(std::move(options)) {
  require(options_.capacity > 0, "FlightRecorder: zero capacity");
  capacity_ = round_up_pow2(options_.capacity);
  require(capacity_ <= kMaxCapacity, "FlightRecorder: capacity too large");
  region_size_ = kHeaderSize + capacity_ * kSlotSize;
  if (!options_.path.empty()) {
    const int fd = ::open(options_.path.c_str(), O_RDWR | O_CREAT | O_TRUNC,
                          0644);
    require(fd >= 0, "FlightRecorder: cannot create " + options_.path);
    if (::ftruncate(fd, static_cast<off_t>(region_size_)) != 0) {
      ::close(fd);
      require(false, "FlightRecorder: cannot size " + options_.path);
    }
    void* mapped = ::mmap(nullptr, region_size_, PROT_READ | PROT_WRITE,
                          MAP_SHARED, fd, 0);
    ::close(fd);
    require(mapped != MAP_FAILED,
            "FlightRecorder: cannot map " + options_.path);
    base_ = static_cast<unsigned char*>(mapped);
    mapped_file_ = true;
  } else {
    // Zeroed and 8-aligned, matching a fresh file. calloc leaves the
    // pages of a large ring (the --trace size) unresident until records
    // land in them.
    base_ = static_cast<unsigned char*>(std::calloc(region_size_, 1));
    require(base_ != nullptr, "FlightRecorder: cannot allocate the ring");
  }
  std::memcpy(base_, kMagic, sizeof(kMagic));
  *word_at(base_, 8) = static_cast<std::uint64_t>(kVersion) |
                       (static_cast<std::uint64_t>(options_.node_id) << 32);
  *word_at(base_, 16) = capacity_;
  *word_at(base_, 24) = 0;
  *word_at(base_, 32) = static_cast<std::uint64_t>(wall_now_us());
  *word_at(base_, 40) = static_cast<std::uint64_t>(options_.role);
}

FlightRecorder::~FlightRecorder() {
  if (flight_recorder() == this) {
    install_flight_recorder(nullptr);
  }
  if (mapped_file_) {
    ::munmap(base_, region_size_);
  } else {
    std::free(base_);
  }
}

void FlightRecorder::record(FlightEvent event, const MessageId& id,
                            std::uint64_t arg) {
  const std::uint64_t ticket =
      std::atomic_ref<std::uint64_t>(*word_at(base_, 24))
          .fetch_add(1, std::memory_order_relaxed);
  unsigned char* slot =
      base_ + kHeaderSize + (ticket & (capacity_ - 1)) * kSlotSize;
  std::atomic_ref<std::uint64_t> stamp(*word_at(slot, 0));
  // Per-slot seqlock: the acq_rel exchange pins the field stores after
  // the invalidation; the release publish pins them before the stamp. A
  // concurrent reader (or the decoder, after a mid-record death) sees
  // stamp 0 or a ticket mismatch and skips the slot.
  stamp.exchange(0, std::memory_order_acq_rel);
  std::atomic_ref<std::uint64_t>(*word_at(slot, 8))
      .store(static_cast<std::uint64_t>(wall_now_us()),
             std::memory_order_relaxed);
  std::atomic_ref<std::uint64_t>(*word_at(slot, 16))
      .store(id.seq, std::memory_order_relaxed);
  std::atomic_ref<std::uint64_t>(*word_at(slot, 24))
      .store(static_cast<std::uint64_t>(id.sender) |
                 (static_cast<std::uint64_t>(event) << 32),
             std::memory_order_relaxed);
  std::atomic_ref<std::uint64_t>(*word_at(slot, 32))
      .store(arg, std::memory_order_relaxed);
  stamp.store(ticket + 1, std::memory_order_release);
}

std::uint64_t FlightRecorder::total_recorded() const {
  return std::atomic_ref<std::uint64_t>(*word_at(base_, 24))
      .load(std::memory_order_relaxed);
}

bool FlightRecorder::dump(const char* path) const {
  if (mapped_file_) {
    // The shared mapping IS the dump; flush is best-effort (the kernel
    // persists it on any process death, SIGKILL included).
    ::msync(base_, region_size_, MS_ASYNC);
    return true;
  }
  if (path == nullptr || path[0] == '\0') {
    return false;
  }
  // Atomic + async-signal-safe: raw writes to a tmp name, then rename.
  // No allocation — the tmp name and copy buffer live on the stack.
  char tmp[512];
  const std::size_t len = std::strlen(path);
  if (len + 8 >= sizeof(tmp)) {
    return false;
  }
  std::memcpy(tmp, path, len);
  std::memcpy(tmp + len, ".tmp", 5);
  const int fd = ::open(tmp, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return false;
  }
  unsigned char buffer[4096];
  std::size_t filled = 0;
  bool ok = true;
  for (std::size_t offset = 0; offset < region_size_ && ok;
       offset += sizeof(std::uint64_t)) {
    // Relaxed atomic loads: concurrent writers may still be appending.
    const std::uint64_t word =
        std::atomic_ref<std::uint64_t>(*word_at(base_, offset))
            .load(std::memory_order_relaxed);
    std::memcpy(buffer + filled, &word, sizeof(word));
    filled += sizeof(word);
    if (filled == sizeof(buffer) ||
        offset + sizeof(std::uint64_t) >= region_size_) {
      for (std::size_t done = 0; done < filled;) {
        const ssize_t n = ::write(fd, buffer + done, filled - done);
        if (n <= 0) {
          ok = false;
          break;
        }
        done += static_cast<std::size_t>(n);
      }
      filled = 0;
    }
  }
  ok = ::close(fd) == 0 && ok;
  ok = ok && ::rename(tmp, path) == 0;
  return ok;
}

std::vector<std::uint8_t> FlightRecorder::snapshot_bytes() const {
  std::vector<std::uint8_t> out(region_size_);
  for (std::size_t offset = 0; offset < region_size_;
       offset += sizeof(std::uint64_t)) {
    const std::uint64_t word =
        std::atomic_ref<std::uint64_t>(*word_at(base_, offset))
            .load(std::memory_order_relaxed);
    std::memcpy(out.data() + offset, &word, sizeof(word));
  }
  return out;
}

FlightRecorder* flight_recorder() {
  return g_flight.load(std::memory_order_relaxed);
}

void install_flight_recorder(FlightRecorder* recorder) {
  g_flight.store(recorder, std::memory_order_release);
}

FlightDump decode_flight_dump(std::span<const std::uint8_t> bytes) {
  FlightDump dump;
  try {
    Reader reader(bytes);
    char magic[8];
    for (char& c : magic) {
      c = static_cast<char>(reader.u8());
    }
    require(std::memcmp(magic, kMagic, sizeof(kMagic)) == 0,
            "flight dump: bad magic");
    const std::uint32_t version = reader.u32();
    require(version == kVersion, "flight dump: unsupported version");
    dump.node_id = reader.u32();
    dump.capacity = reader.u64();
    require(dump.capacity > 0 && dump.capacity <= kMaxCapacity &&
                (dump.capacity & (dump.capacity - 1)) == 0,
            "flight dump: implausible capacity");
    dump.total_recorded = reader.u64();
    dump.wall_anchor_us = reader.i64();
    dump.role = reader.u32();
    reader.u32();  // reserved
    reader.u64();  // reserved
    reader.u64();  // reserved
    require(reader.remaining() == dump.capacity * kSlotSize,
            "flight dump: truncated slot region");
    for (std::uint64_t index = 0; index < dump.capacity; ++index) {
      const std::uint64_t stamp = reader.u64();
      const std::int64_t ts_us = reader.i64();
      const std::uint64_t seq = reader.u64();
      const std::uint64_t meta = reader.u64();
      const std::uint64_t arg = reader.u64();
      if (stamp == 0) {
        continue;  // never written, or caught mid-record
      }
      const std::uint64_t ticket = stamp - 1;
      const std::uint64_t event_byte = (meta >> 32) & 0xFF;
      if ((ticket & (dump.capacity - 1)) != index || event_byte == 0 ||
          event_byte > kMaxEvent || ts_us < 0) {
        dump.torn += 1;
        continue;
      }
      FlightRecord record;
      record.ticket = ticket;
      record.ts_us = ts_us;
      record.id = MessageId{static_cast<NodeId>(meta & 0xFFFFFFFF), seq};
      record.event = static_cast<FlightEvent>(event_byte);
      record.arg = arg;
      dump.records.push_back(record);
    }
  } catch (const SerdeError& e) {
    require(false, std::string("flight dump: ") + e.what());
  }
  std::sort(dump.records.begin(), dump.records.end(),
            [](const FlightRecord& a, const FlightRecord& b) {
              return a.ticket < b.ticket;
            });
  return dump;
}

namespace {

TraceEvent flow_event(char ph, const char* name, const char* cat,
                      std::uint64_t id, std::int64_t ts_us, std::uint32_t pid) {
  TraceEvent event;
  event.name = name;
  event.cat = cat;
  event.ph = ph;
  event.ts_us = ts_us;
  event.pid = pid;
  event.flow_id = id;
  return event;
}

}  // namespace

std::vector<TraceEvent> flight_to_trace_events(const FlightDump& dump,
                                               const DepsById& deps) {
  const std::uint32_t pid = dump.node_id;
  std::vector<TraceEvent> events;
  events.reserve(2 * dump.records.size() + 1);
  TraceEvent meta;
  meta.name = "process_name";
  meta.cat = "__metadata";
  meta.ph = 'M';
  meta.pid = pid;
  meta.args_json = std::string("\"name\":\"") +
                   (dump.role == 1 ? "kv " : "node ") +
                   std::to_string(dump.node_id) + " flight\"";
  events.push_back(std::move(meta));
  // First local deliver moment per message: the tail of every Occurs_After
  // edge into it (causal delivery delivers a dependency first).
  std::unordered_map<MessageId, std::int64_t> delivered_at;
  for (const FlightRecord& record : dump.records) {
    TraceEvent event;
    event.name = flight_event_name(record.event);
    event.cat = "flight";
    event.ts_us = record.ts_us;
    event.pid = pid;
    if (record.event == FlightEvent::kClockOffset) {
      // The pairwise offset sample clock_corrections() aligns with.
      event.cat = "clock";
      const auto offset_us = static_cast<std::int64_t>(record.arg);
      event.args_json = "\"peer\":" + std::to_string(record.id.sender) +
                        ",\"offset_us\":" + std::to_string(offset_us);
      events.push_back(std::move(event));
      continue;
    }
    event.args_json = "\"msg\":\"" + record.id.to_string() +
                      "\",\"arg\":" + std::to_string(record.arg) +
                      ",\"ticket\":" + std::to_string(record.ticket);
    if (record.event == FlightEvent::kSubmit) {
      events.push_back(std::move(event));
      events.push_back(flow_event('s', "msg", "msg", flow_id(record.id),
                                  record.ts_us, pid));
      continue;
    }
    if (record.event != FlightEvent::kDeliver) {
      events.push_back(std::move(event));
      continue;
    }
    // The deliver span ends at the delivery moment; its duration is the
    // hold time.
    const std::int64_t held =
        std::max<std::int64_t>(static_cast<std::int64_t>(record.arg), 0);
    event.ph = 'X';
    event.ts_us = record.ts_us - held;
    event.dur_us = held;
    events.push_back(std::move(event));
    events.push_back(flow_event('f', "msg", "msg", flow_id(record.id),
                                record.ts_us - held, pid));
    const auto declared = deps.find(record.id);
    if (declared != deps.end()) {
      for (const MessageId& dep : declared->second) {
        // A dependency delivered before the ring's oldest surviving
        // record has no timestamp here; skip its edge.
        const auto tail = delivered_at.find(dep);
        if (tail == delivered_at.end()) {
          continue;
        }
        const std::uint64_t edge = edge_flow_id(dep, record.id);
        events.push_back(flow_event('s', "Occurs_After", "occurs_after", edge,
                                    tail->second, pid));
        events.push_back(flow_event('f', "Occurs_After", "occurs_after", edge,
                                    record.ts_us, pid));
      }
    }
    delivered_at.emplace(record.id, record.ts_us);
  }
  return events;
}

}  // namespace cbc::obs
