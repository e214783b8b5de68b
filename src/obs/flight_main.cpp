// cbc_flight: decode flight-recorder dumps into Chrome trace JSON.
//
//   cbc_flight -o postmortem.json flight_node2.bin [more.bin ...]
//   cbc_flight --summary flight_node2.bin
//
// The output is the same trace-event schema `cbc_node --trace` writes
// (both decode a flight ring), so a postmortem merges into the surviving
// nodes' timeline:
//
//   cbc_trace_merge -o merged.json trace0.json trace1.json postmortem.json
//
// Exit 1 on a corrupt dump; exit 2 on usage errors. Per-record damage
// (a writer killed mid-record, fuzzed bytes) is skipped and reported,
// not fatal — the rest of the ring is still evidence.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"

namespace {

int usage() {
  std::cerr << "usage: cbc_flight -o <out.json> <dump.bin>...\n"
               "       cbc_flight --summary <dump.bin>...\n";
  return 2;
}

bool read_file(const std::string& path, std::vector<std::uint8_t>& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();
  out.assign(bytes.begin(), bytes.end());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string output;
  bool summary_only = false;
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-o") {
      if (i + 1 >= argc) {
        return usage();
      }
      output = argv[++i];
    } else if (arg == "--summary") {
      summary_only = true;
    } else if (arg == "-h" || arg == "--help") {
      return usage();
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty() || (output.empty() && !summary_only)) {
    return usage();
  }
  std::vector<cbc::obs::TraceEvent> events;
  for (const std::string& path : inputs) {
    std::vector<std::uint8_t> bytes;
    if (!read_file(path, bytes)) {
      std::cerr << "cbc_flight: cannot read " << path << "\n";
      return 1;
    }
    try {
      const cbc::obs::FlightDump dump = cbc::obs::decode_flight_dump(bytes);
      std::cerr << "cbc_flight: " << path << ": node " << dump.node_id
                << " role " << dump.role << ", " << dump.records.size()
                << " records (" << dump.total_recorded << " recorded, ring "
                << dump.capacity << ", " << dump.torn << " torn)\n";
      std::vector<cbc::obs::TraceEvent> decoded =
          cbc::obs::flight_to_trace_events(dump);
      events.insert(events.end(), std::make_move_iterator(decoded.begin()),
                    std::make_move_iterator(decoded.end()));
    } catch (const std::exception& e) {
      std::cerr << "cbc_flight: " << path << ": " << e.what() << "\n";
      return 1;
    }
  }
  if (summary_only) {
    return 0;
  }
  std::ofstream out(output, std::ios::trunc);
  if (!out) {
    std::cerr << "cbc_flight: cannot write " << output << "\n";
    return 1;
  }
  out << cbc::obs::render_trace_events(events);
  return out ? 0 : 1;
}
