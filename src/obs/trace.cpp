#include "obs/trace.h"

#include <cstdio>
#include <ctime>
#include <sstream>

namespace cbc::obs {

std::int64_t wall_now_us() {
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000 +
         ts.tv_nsec / 1'000;
}

namespace {

void render_event(std::ostream& out, const TraceEvent& event) {
  out << "{\"name\":\"" << json_escape(event.name) << "\",\"cat\":\""
      << json_escape(event.cat) << "\",\"ph\":\"" << event.ph
      << "\",\"ts\":" << event.ts_us << ",\"pid\":" << event.pid
      << ",\"tid\":" << event.pid;
  if (event.ph == 'X') {
    out << ",\"dur\":" << event.dur_us;
  }
  if (event.ph == 's' || event.ph == 'f') {
    out << ",\"id\":\"0x" << std::hex << event.flow_id << std::dec << "\"";
    if (event.ph == 'f') {
      // Bind to the enclosing slice rather than the next one.
      out << ",\"bp\":\"e\"";
    }
  }
  if (event.ph == 'i') {
    out << ",\"s\":\"t\"";
  }
  if (!event.args_json.empty()) {
    out << ",\"args\":{" << event.args_json << "}";
  }
  out << "}";
}

}  // namespace

std::string render_trace_events(const std::vector<TraceEvent>& events) {
  std::ostringstream out;
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < events.size(); ++i) {
    render_event(out, events[i]);
    if (i + 1 < events.size()) {
      out << ",";
    }
    out << "\n";
  }
  out << "]}\n";
  return out.str();
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace cbc::obs
