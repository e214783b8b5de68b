// perfbench — drives the production cbc_node / cbc_kv stacks in-process
// and prints one JSON result line (see perfbench/README.md).
//
//   perfbench --workload node_long|kv_mix|node_faulty_sim --seed N
//             --seconds S --trace 0|1 [--rounds N]
//
// A run repeats episodes (fresh stacks, warm-up, fixed timed rounds) until
// S seconds are spent, and always runs the episodes its metrics need (one
// per kind; node_faulty_sim: kPooledEpisodes per kind). --trace 0 prints
// the end-to-end metrics; --trace 1 alternates untraced and traced
// episodes and prints the per-layer metrics with the tracing overhead.
// --rounds sets the timed rounds per episode (tests). The exit code is 0
// only when every output check held. Span dumps and the flight ring's
// crash dump go to .bench_out/ under the working directory.
#include <sys/stat.h>

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "report.h"
#include "spans.h"
#include "stack.h"
#include "workloads.h"

namespace {

const std::string kOutDir = ".bench_out";

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload node_long|kv_mix|node_faulty_sim "
               "--seed N --seconds S --trace 0|1 [--rounds N]\n";
  std::exit(2);
}

perfbench::RunOptions parse_args(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage("flag needs a value: " + flag);
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--rounds") {
        options.rounds = std::stoull(value);
      } else {
        usage("unknown flag: " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  const std::string& w = options.workload;
  if (!have_workload ||
      (w != "node_long" && w != "kv_mix" && w != "node_faulty_sim")) {
    usage("--workload must be node_long, kv_mix or node_faulty_sim");
  }
  if (options.seconds <= 0) {
    usage("--seconds must be positive");
  }
  return options;
}

void merge(perfbench::Verdict& into, const perfbench::Verdict& from) {
  into.attempted += from.attempted;
  into.failed += from.failed;
  for (const std::string& problem : from.problems) {
    into.fail(problem);
  }
}

/// Episodes of both kinds, untraced first, alternating under --trace 1.
struct Episodes {
  std::vector<perfbench::Episode> untraced;
  std::vector<perfbench::Episode> traced;
};

/// Spans go to `recorder` during traced episodes only.
Episodes run_episodes(const perfbench::RunOptions& options,
                      perfbench::SpanRecorder& recorder, std::ostream& header,
                      perfbench::Verdict& verdict) {
  Episodes episodes;
  const std::int64_t deadline =
      perfbench::now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
  const std::uint64_t kinds = options.trace ? 2 : 1;
  const std::uint64_t needed =
      kinds * (options.workload == "node_faulty_sim" ? perfbench::kPooledEpisodes
                                                     : 1);
  for (std::uint64_t i = 0; i < needed || perfbench::now_ns() < deadline; ++i) {
    const bool traced = options.trace && i % 2 == 1;
    std::ostream* parity = i < kinds ? &header : nullptr;
    const std::uint64_t seed = perfbench::mix_seed(options.seed, 100 + i);
    perfbench::set_active_recorder(traced ? &recorder : nullptr);
    perfbench::Episode episode =
        options.workload == "kv_mix"
            ? perfbench::run_kv_episode(options, seed, traced, parity)
            : perfbench::run_node_episode(options, seed, traced, parity, header);
    header << "# episode " << i << " traced=" << traced
           << " setup_s=" << episode.setup_s
           << " ops_per_s=" << perfbench::ops_per_second(episode.phase)
           << " op_latency_p50_us="
           << perfbench::percentile(episode.phase.op_latency_us, 50) << "\n";
    perfbench::set_active_recorder(nullptr);
    merge(verdict, episode.verdict);
    (traced ? episodes.traced : episodes.untraced).push_back(std::move(episode));
    if (!verdict.correct()) {
      break;  // a failed check ends the run
    }
  }
  return episodes;
}

/// The best episode's ops_per_s, as the end-to-end metric takes it.
double best_rate(const std::vector<perfbench::Episode>& episodes) {
  double best = 0.0;
  for (const perfbench::Episode& episode : episodes) {
    best = std::max(best, perfbench::ops_per_second(episode.phase));
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::RunOptions options = parse_args(argc, argv);
  ::mkdir(kOutDir.c_str(), 0755);
  std::ostringstream header;
  header << "# perfbench workload=" << options.workload
         << " seed=" << options.seed << " seconds=" << options.seconds
         << " rounds=" << options.rounds << " trace=" << options.trace << "\n";
  perfbench::Verdict verdict;
  std::vector<perfbench::Metric> metrics;
  try {
    perfbench::install_flight_recorder(kOutDir + "/perfbench.flight");
    perfbench::SpanRecorder recorder(1 << 18);
    const Episodes episodes = run_episodes(options, recorder, header, verdict);
    header << "# episodes untraced=" << episodes.untraced.size()
           << " traced=" << episodes.traced.size() << "\n";
    if (!options.trace) {
      metrics = perfbench::end_to_end_metrics(
          episodes.untraced, options.workload == "node_faulty_sim");
    } else {
      perfbench::LayerInputs layers;
      for (const perfbench::Episode& episode : episodes.traced) {
        layers.add(episode.layers);
      }
      layers.spans = &recorder;
      layers.untraced_ops_per_s = best_rate(episodes.untraced);
      layers.traced_ops_per_s = best_rate(episodes.traced);
      metrics = perfbench::per_layer_metrics(layers);
      const std::string spans = kOutDir + "/spans-" + options.workload +
                                "-seed" + std::to_string(options.seed) + ".tsv";
      if (recorder.write_tsv(spans)) {
        header << "# spans " << spans << "\n";
      }
    }
  } catch (const std::exception& error) {
    verdict.fail(std::string("fatal: ") + error.what());
  }
  std::cout << header.str();
  const double failed_frac =
      verdict.attempted == 0 ? 0.0
                             : static_cast<double>(verdict.failed) /
                                   static_cast<double>(verdict.attempted);
  std::cout << "# failed_frac=" << failed_frac << " (" << verdict.failed
            << " of " << verdict.attempted << ")\n";
  if (verdict.attempted == 0) {
    verdict.attempted = 1;  // the result line requires attempted >= 1
    verdict.fail("no operation was attempted");
  }
  for (const std::string& problem : verdict.problems) {
    std::cout << "# problem: " << problem << "\n";
  }
  std::cout << perfbench::result_json(verdict, metrics) << std::endl;
  return verdict.correct() ? 0 : 1;
}
