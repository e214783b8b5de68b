#include "obs/trace_merge.h"

#include <algorithm>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "util/ensure.h"

namespace cbc::obs {

namespace {

const JsonArray& trace_events(const JsonValue& doc) {
  const JsonValue* events = doc.find("traceEvents");
  require(events != nullptr && events->is_array(),
          "chrome trace: missing traceEvents array");
  return events->as_array();
}

/// Numeric member of the event's `args` object; fallback when absent.
double arg_number(const JsonValue& event, const std::string& key,
                  double fallback) {
  const JsonValue* args = event.find("args");
  if (args == nullptr || !args->is_object()) {
    return fallback;
  }
  const JsonValue* value = args->find(key);
  return value != nullptr && value->is_number() ? value->as_number()
                                                : fallback;
}

/// String member of the event's `args` object ("" when absent).
std::string arg_string(const JsonValue& event, const std::string& key) {
  const JsonValue* args = event.find("args");
  if (args == nullptr || !args->is_object()) {
    return {};
  }
  const JsonValue* value = args->find(key);
  return value != nullptr && value->is_string() ? value->as_string()
                                                : std::string();
}

/// Sender encoded in a MessageId string ("s3:17" -> 3; nullopt on
/// anything else).
std::optional<std::uint32_t> msg_sender(const std::string& msg) {
  if (msg.size() < 2 || msg[0] != 's') {
    return std::nullopt;
  }
  std::uint32_t sender = 0;
  std::size_t i = 1;
  for (; i < msg.size() && msg[i] >= '0' && msg[i] <= '9'; ++i) {
    sender = sender * 10 + static_cast<std::uint32_t>(msg[i] - '0');
  }
  if (i == 1 || i >= msg.size() || msg[i] != ':') {
    return std::nullopt;
  }
  return sender;
}

/// Exact sample-level percentiles (nearest-rank with midpoint rounding).
LatencyStat make_stat(std::vector<double> values) {
  LatencyStat stat;
  stat.count = values.size();
  if (values.empty()) {
    return stat;
  }
  std::sort(values.begin(), values.end());
  const auto at = [&values](double q) {
    const double pos =
        q / 100.0 * static_cast<double>(values.size() - 1);
    return values[static_cast<std::size_t>(pos + 0.5)];
  };
  stat.p50 = at(50);
  stat.p90 = at(90);
  stat.p99 = at(99);
  return stat;
}

}  // namespace

JsonValue parse_chrome_trace(const std::string& text) {
  JsonValue doc = json_parse(text);
  for (const JsonValue& event : trace_events(doc)) {
    require(event.is_object(), "chrome trace: event is not an object");
    const JsonValue* ph = event.find("ph");
    require(ph != nullptr && ph->is_string() && ph->as_string().size() == 1,
            "chrome trace: event missing ph");
    const JsonValue* name = event.find("name");
    require(name != nullptr && name->is_string(),
            "chrome trace: event missing name");
    const JsonValue* ts = event.find("ts");
    require(ts != nullptr && ts->is_number(),
            "chrome trace: event missing ts");
    const JsonValue* pid = event.find("pid");
    require(pid != nullptr && pid->is_number(),
            "chrome trace: event missing pid");
  }
  return doc;
}

TraceSummary summarize_chrome_trace(const JsonValue& doc) {
  TraceSummary summary;
  // cat+id pairs seen for flow starts / ends.
  std::multiset<std::string> starts;
  std::multiset<std::string> ends;
  for (const JsonValue& event : trace_events(doc)) {
    summary.events += 1;
    const std::string& ph = event.find("ph")->as_string();
    const std::string& name = event.find("name")->as_string();
    const auto pid =
        static_cast<std::uint32_t>(event.find("pid")->as_number());
    if (ph == "X" && name == "deliver") {
      summary.deliver_events[pid] += 1;
    }
    if (ph == "s" || ph == "f") {
      const JsonValue* cat = event.find("cat");
      const JsonValue* id = event.find("id");
      require(cat != nullptr && cat->is_string() && id != nullptr &&
                  id->is_string(),
              "chrome trace: flow event missing cat/id");
      const std::string key = cat->as_string() + "#" + id->as_string();
      (ph == "s" ? starts : ends).insert(key);
    }
  }
  for (const std::string& key : starts) {
    const auto it = ends.find(key);
    if (it != ends.end()) {
      if (key.rfind("occurs_after#", 0) == 0) {
        summary.occurs_after_flows += 1;
      } else {
        summary.message_flows += 1;
      }
      ends.erase(it);
    } else {
      summary.unmatched_flows += 1;
    }
  }
  summary.unmatched_flows += ends.size();
  return summary;
}

std::vector<JsonValue> load_trace_files(
    const std::vector<std::string>& paths) {
  require(!paths.empty(), "load_trace_files: no inputs");
  std::vector<JsonValue> docs;
  docs.reserve(paths.size());
  for (const std::string& path : paths) {
    std::ifstream in(path);
    require(static_cast<bool>(in), "load_trace_files: cannot open " + path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    try {
      docs.push_back(parse_chrome_trace(buffer.str()));
    } catch (const std::exception& e) {
      require(false, "load_trace_files: " + path + ": " + e.what());
    }
  }
  return docs;
}

std::map<std::uint32_t, double> clock_corrections(
    const std::vector<JsonValue>& docs) {
  // Latest offset sample per directed pair a -> peer b, where offset is
  // (b's clock − a's clock) as estimated by a.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::pair<double, double>>
      latest;  // (a, b) -> (ts, offset_us)
  std::set<std::uint32_t> pids;
  for (const JsonValue& doc : docs) {
    for (const JsonValue& event : trace_events(doc)) {
      if (event.find("ph")->as_string() == "M") {
        continue;
      }
      const auto pid =
          static_cast<std::uint32_t>(event.find("pid")->as_number());
      pids.insert(pid);
      const JsonValue* cat = event.find("cat");
      if (event.find("name")->as_string() != "clock_offset" ||
          cat == nullptr || !cat->is_string() ||
          cat->as_string() != "clock") {
        continue;
      }
      const double peer = arg_number(event, "peer", -1.0);
      if (peer < 0) {
        continue;
      }
      const double ts = event.find("ts")->as_number();
      auto& slot = latest[{pid, static_cast<std::uint32_t>(peer)}];
      if (slot.first <= ts) {
        slot = {ts, arg_number(event, "offset_us", 0.0)};
      }
    }
  }
  // Undirected adjacency: correction(b) = correction(a) − offset(a→b).
  std::map<std::uint32_t, std::vector<std::pair<std::uint32_t, double>>>
      edges;
  for (const auto& [pair, sample] : latest) {
    edges[pair.first].emplace_back(pair.second, -sample.second);
    edges[pair.second].emplace_back(pair.first, sample.second);
  }
  std::map<std::uint32_t, double> corrections;
  for (const std::uint32_t pid : pids) {
    corrections[pid] = 0.0;
  }
  std::set<std::uint32_t> visited;
  for (const auto& [root, unused] : edges) {
    if (visited.count(root) != 0) {
      continue;
    }
    // Component anchor: its lowest pid stays at correction 0 (edges is an
    // ordered map, so the first unvisited node IS the component minimum
    // reachable this way; good enough — corrections are relative).
    std::vector<std::uint32_t> frontier{root};
    visited.insert(root);
    corrections[root] = 0.0;
    while (!frontier.empty()) {
      const std::uint32_t a = frontier.back();
      frontier.pop_back();
      for (const auto& [b, delta] : edges[a]) {
        if (visited.count(b) != 0) {
          continue;
        }
        visited.insert(b);
        corrections[b] = corrections[a] + delta;
        frontier.push_back(b);
      }
    }
  }
  return corrections;
}

std::string merge_trace_docs(const std::vector<JsonValue>& docs,
                             const MergeOptions& options) {
  std::map<std::uint32_t, double> corrections;
  if (options.align) {
    corrections = clock_corrections(docs);
  }
  struct Entry {
    double ts;
    int order;  // metadata first, then input order for equal timestamps
    std::string json;
  };
  std::vector<Entry> entries;
  int order = 0;
  for (const JsonValue& doc : docs) {
    for (const JsonValue& event : trace_events(doc)) {
      const bool metadata = event.find("ph")->as_string() == "M";
      double ts = metadata ? -1.0 : event.find("ts")->as_number();
      std::string json;
      if (options.align && !metadata) {
        const auto pid =
            static_cast<std::uint32_t>(event.find("pid")->as_number());
        const auto corr = corrections.find(pid);
        if (corr != corrections.end() && corr->second != 0.0) {
          ts += corr->second;
          JsonObject shifted = event.as_object();
          shifted["ts"] = JsonValue(ts);
          json = JsonValue(std::move(shifted)).dump();
        }
      }
      if (json.empty()) {
        json = event.dump();
      }
      entries.push_back(Entry{.ts = ts, .order = order++,
                              .json = std::move(json)});
    }
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) {
                     if (a.ts != b.ts) {
                       return a.ts < b.ts;
                     }
                     return a.order < b.order;
                   });
  std::ostringstream out;
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    out << entries[i].json;
    if (i + 1 < entries.size()) {
      out << ",";
    }
    out << "\n";
  }
  out << "]}\n";
  return out.str();
}

std::string merge_trace_files(const std::vector<std::string>& paths,
                              const MergeOptions& options) {
  return merge_trace_docs(load_trace_files(paths), options);
}

LatencyReport latency_report(const std::vector<JsonValue>& docs) {
  const std::map<std::uint32_t, double> corrections = clock_corrections(docs);
  const auto corrected = [&corrections](std::uint32_t pid, double ts) {
    const auto it = corrections.find(pid);
    return it == corrections.end() ? ts : ts + it->second;
  };

  // Pass 1: index per-message anchor timestamps.
  struct MsgAnchors {
    bool has_submit = false;
    std::uint32_t submit_pid = 0;
    double submit_ts = 0.0;  // clock-corrected
    double encode_ts = 0.0;  // raw (same-pid delta as submit)
    double submit_raw_ts = 0.0;
    bool has_encode = false;
    /// wire_tx per destination peer (arg of the flight record).
    std::map<std::uint32_t, double> tx_ts;  // corrected
  };
  std::map<std::string, MsgAnchors> anchors;
  for (const JsonValue& doc : docs) {
    for (const JsonValue& event : trace_events(doc)) {
      if (event.find("ph")->as_string() == "M") {
        continue;
      }
      const std::string& name = event.find("name")->as_string();
      if (name != "submit" && name != "encode" && name != "wire_tx") {
        continue;
      }
      const std::string msg = arg_string(event, "msg");
      if (msg.empty()) {
        continue;
      }
      const auto pid =
          static_cast<std::uint32_t>(event.find("pid")->as_number());
      const double ts = event.find("ts")->as_number();
      MsgAnchors& anchor = anchors[msg];
      if (name == "submit" && !anchor.has_submit) {
        anchor.has_submit = true;
        anchor.submit_pid = pid;
        anchor.submit_raw_ts = ts;
        anchor.submit_ts = corrected(pid, ts);
      } else if (name == "encode" && !anchor.has_encode) {
        anchor.has_encode = true;
        anchor.encode_ts = ts;
      } else if (name == "wire_tx") {
        const double peer = arg_number(event, "arg", -1.0);
        if (peer >= 0) {
          anchor.tx_ts.emplace(static_cast<std::uint32_t>(peer),
                               corrected(pid, ts));
        }
      }
    }
  }

  // Pass 2: component samples.
  std::vector<double> encode_samples;
  std::vector<double> wire_samples;
  std::vector<double> hold_samples;
  std::vector<double> deliver_samples;
  std::vector<double> kv_samples;
  std::map<std::uint32_t, std::vector<double>> hold_by_sender;
  std::map<std::uint32_t, std::vector<double>> kv_by_pid;
  std::set<std::string> seen_delivers;  // msg#pid — live + flight dedup
  for (const auto& [msg, anchor] : anchors) {
    if (anchor.has_submit && anchor.has_encode) {
      encode_samples.push_back(
          std::max(0.0, anchor.encode_ts - anchor.submit_raw_ts));
    }
  }
  for (const JsonValue& doc : docs) {
    for (const JsonValue& event : trace_events(doc)) {
      if (event.find("ph")->as_string() == "M") {
        continue;
      }
      const std::string& name = event.find("name")->as_string();
      const auto pid =
          static_cast<std::uint32_t>(event.find("pid")->as_number());
      const double ts = event.find("ts")->as_number();
      if (name == "wire_rx") {
        const std::string msg = arg_string(event, "msg");
        const auto anchor = anchors.find(msg);
        if (anchor == anchors.end()) {
          continue;
        }
        const auto tx = anchor->second.tx_ts.find(pid);
        if (tx != anchor->second.tx_ts.end()) {
          wire_samples.push_back(
              std::max(0.0, corrected(pid, ts) - tx->second));
        }
        continue;
      }
      if (name == "deliver" && event.find("ph")->as_string() == "X") {
        const std::string msg = arg_string(event, "msg");
        if (msg.empty() ||
            !seen_delivers.insert(msg + "#" + std::to_string(pid)).second) {
          continue;  // a --trace file and a dump of the same ring
        }
        const JsonValue* dur = event.find("dur");
        const double held = dur != nullptr && dur->is_number()
                                ? dur->as_number()
                                : arg_number(event, "arg", 0.0);
        hold_samples.push_back(held);
        const std::optional<std::uint32_t> sender = msg_sender(msg);
        if (sender.has_value()) {
          hold_by_sender[*sender].push_back(held);
        }
        const auto anchor = anchors.find(msg);
        if (anchor != anchors.end() && anchor->second.has_submit) {
          // Span end = delivery moment (ts is the span start, backdated
          // by the hold time).
          deliver_samples.push_back(std::max(
              0.0, corrected(pid, ts + held) - anchor->second.submit_ts));
        }
        continue;
      }
      if (name == "kv_drain") {
        const double waited = arg_number(event, "arg", 0.0);
        kv_samples.push_back(waited);
        kv_by_pid[pid].push_back(waited);
      }
    }
  }

  LatencyReport report;
  report.encode = make_stat(std::move(encode_samples));
  report.wire = make_stat(std::move(wire_samples));
  report.hold = make_stat(std::move(hold_samples));
  report.deliver = make_stat(std::move(deliver_samples));
  report.kv_wait = make_stat(std::move(kv_samples));
  for (auto& [sender, samples] : hold_by_sender) {
    report.hold_by_sender[sender] = make_stat(std::move(samples));
  }
  for (auto& [pid, samples] : kv_by_pid) {
    report.kv_wait_by_pid[pid] = make_stat(std::move(samples));
  }
  return report;
}

namespace {

void render_stat_line(std::ostringstream& out, const std::string& label,
                      const LatencyStat& stat) {
  out << "  " << label << ": n=" << stat.count;
  if (stat.count > 0) {
    out << " p50=" << stat.p50 << "us p90=" << stat.p90 << "us p99="
        << stat.p99 << "us";
  }
  out << "\n";
}

JsonValue stat_json(const LatencyStat& stat) {
  JsonObject object;
  object.emplace("count", JsonValue(static_cast<double>(stat.count)));
  object.emplace("p50", JsonValue(stat.p50));
  object.emplace("p90", JsonValue(stat.p90));
  object.emplace("p99", JsonValue(stat.p99));
  return JsonValue(std::move(object));
}

}  // namespace

std::string render_latency_report(const LatencyReport& report) {
  std::ostringstream out;
  out << "latency decomposition (micros):\n";
  render_stat_line(out, "encode      ", report.encode);
  render_stat_line(out, "wire        ", report.wire);
  render_stat_line(out, "causal hold ", report.hold);
  render_stat_line(out, "deliver e2e ", report.deliver);
  render_stat_line(out, "kv ctx wait ", report.kv_wait);
  for (const auto& [sender, stat] : report.hold_by_sender) {
    render_stat_line(out, "hold from s" + std::to_string(sender), stat);
  }
  for (const auto& [pid, stat] : report.kv_wait_by_pid) {
    render_stat_line(out, "kv wait pid " + std::to_string(pid), stat);
  }
  return out.str();
}

std::string latency_report_json(const LatencyReport& report) {
  JsonObject object;
  object.emplace("encode", stat_json(report.encode));
  object.emplace("wire", stat_json(report.wire));
  object.emplace("hold", stat_json(report.hold));
  object.emplace("deliver", stat_json(report.deliver));
  object.emplace("kv_wait", stat_json(report.kv_wait));
  JsonObject by_sender;
  for (const auto& [sender, stat] : report.hold_by_sender) {
    by_sender.emplace(std::to_string(sender), stat_json(stat));
  }
  object.emplace("hold_by_sender", JsonValue(std::move(by_sender)));
  JsonObject by_pid;
  for (const auto& [pid, stat] : report.kv_wait_by_pid) {
    by_pid.emplace(std::to_string(pid), stat_json(stat));
  }
  object.emplace("kv_wait_by_pid", JsonValue(std::move(by_pid)));
  return JsonValue(std::move(object)).dump();
}

}  // namespace cbc::obs
