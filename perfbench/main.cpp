// perfbench_rep: runs one workload once, in this process, and prints
// one JSON object with its metrics, its report checksum and its checks.
//
//   perfbench_rep --workload NAME --seed N [--trace 0|1] [--spans FILE]
//                 [--population X] [--traffic X] [--shards N]
//
// run.py drives it: several untraced processes per measurement, plus a
// traced process for the per-layer numbers. Each phase of the measured
// window is its own `scenario.segment` span, and the record lists their
// wall times under `segments_s`. See README.md.
#include <sys/resource.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "pmu.hpp"
#include "probes.hpp"
#include "trace.hpp"
#include "workloads.hpp"

using namespace rebeca;
using perfbench::Values;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  std::string spans_path;
  perfbench::Size size;
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
      have_seed = true;
    } else if (flag == "--trace") {
      a.trace = std::stoi(v) != 0;
    } else if (flag == "--spans") {
      a.spans_path = v;
    } else if (flag == "--population") {
      a.size.population = std::stod(v);
    } else if (flag == "--traffic") {
      a.size.traffic = std::stod(v);
    } else if (flag == "--shards") {
      a.size.shards = static_cast<std::size_t>(std::stoul(v));
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || !have_seed) {
    throw std::invalid_argument("--workload and --seed are required");
  }
  if (!(a.size.population > 0) || !(a.size.traffic > 0)) {
    throw std::invalid_argument("--population and --traffic must be positive");
  }
  return a;
}

std::string fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void write_spans(const std::string& path, const std::string& workload,
                 const std::vector<perfbench::Span>& spans) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write spans to " + path);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const perfbench::Span& s = spans[i];
    f << "{\"workload\": " << json_string(workload) << ", \"id\": " << i
      << ", \"name\": " << json_string(s.name) << ", \"parent\": " << s.parent
      << ", \"start_s\": " << json_number(s.start_s)
      << ", \"end_s\": " << json_number(s.end_s)
      << ", \"instructions\": " << json_number(s.instructions)
      << ", \"cycles\": " << json_number(s.cycles) << ", \"calls\": " << s.calls
      << "}\n";
  }
  if (!f.flush()) throw std::runtime_error("writing spans to " + path + " failed");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int run(const Args& a) {
  // The counters open before anything starts a thread, so every engine
  // worker inherits them.
  const perfbench::Pmu pmu;
  const perfbench::PmuSample process_start = pmu.read();
  perfbench::Tracer tr(pmu);

  perfbench::Workload w = perfbench::make_workload(a.workload, a.seed, a.size);
  std::unique_ptr<scenario::Scenario> s;
  metrics::MessageCounters at_warmup;
  perfbench::BrokerGauges warm;
  scenario::ScenarioReport report;

  tr.span("bench.simulation", [&] {
    tr.span("scenario.build", [&] { s = w.builder.build(); });
    tr.span("scenario.warmup", [&] {
      for (std::size_t i = 0; i < w.warmup_phases; ++i) {
        s->run_next_phase();
      }
    });
    at_warmup = tr.span("net.total_counters",
                        [&] { return s->overlay().total_counters(); });
    if (a.trace) {
      warm = tr.span("broker.gauges", [&] { return perfbench::broker_gauges(*s); });
    }
    tr.span("scenario.window", [&] {
      while (s->phases_remaining() > 0) {
        tr.span("scenario.segment", [&] { s->run_next_phase(); });
      }
    });
    report = tr.span("scenario.report", [&] { return s->report(); });
  });
  const double rss_mb = peak_rss_mb();

  Values v;
  // Copies: the probes below append spans, which may move the vector.
  const perfbench::Span build = tr.get("scenario.build");
  const perfbench::Span warmup = tr.get("scenario.warmup");
  const perfbench::Span window = tr.get("scenario.window");
  const perfbench::Span rep = tr.get("scenario.report");
  std::vector<double> segments_s;
  for (const perfbench::Span& span : tr.spans()) {
    if (span.name == "scenario.segment") segments_s.push_back(span.wall_s());
  }

  metrics::MessageCounters in_window;
  for (std::size_t c = 0; c < static_cast<std::size_t>(metrics::MessageClass::kCount);
       ++c) {
    const auto cls = static_cast<metrics::MessageClass>(c);
    in_window.add(cls, report.messages.count(cls) - at_warmup.count(cls));
  }
  const double delivered = static_cast<double>(report.delivered);
  const double missing = static_cast<double>(report.missing);
  const double duplicates = static_cast<double>(report.duplicates);

  v["setup_s"] = build.wall_s() + warmup.wall_s();
  v["run_s"] = window.wall_s() + rep.wall_s();
  v["setup_ginstr"] = (build.instructions + warmup.instructions) / 1e9;
  v["run_ginstr"] = (window.instructions + rep.instructions) / 1e9;
  v["peak_rss_mb"] = rss_mb;
  v["delivery_p50_ms"] = static_cast<double>(report.latency.p50) / 1e6;
  v["delivery_p99_ms"] = static_cast<double>(report.latency.p99) / 1e6;
  v["msgs_per_delivery"] =
      delivered == 0 ? 0 : static_cast<double>(in_window.total()) / delivered;
  v["failed_share"] =
      delivered + missing == 0 ? 0 : (missing + duplicates) / (delivered + missing);
  v["attempted"] = delivered + missing;
  v["failed"] = missing + duplicates;
  v["latency_samples"] = static_cast<double>(report.latency.count);
  v["window_subscription_admin"] = static_cast<double>(
      in_window.count(metrics::MessageClass::subscription_admin));
  v["sim_ginstr"] = tr.get("bench.simulation").instructions / 1e9;
  v["scenario.build_s"] = build.wall_s();
  v["scenario.build_ginstr"] = build.instructions / 1e9;
  v["scenario.warmup_s"] = warmup.wall_s();
  v["scenario.warmup_ginstr"] = warmup.instructions / 1e9;
  v["scenario.window_s"] = window.wall_s();
  v["scenario.window_ginstr"] = window.instructions / 1e9;
  v["scenario.window_cpi"] = window.cycles / window.instructions;
  v["scenario.report_s"] = rep.wall_s();
  v["scenario.report_ginstr"] = rep.instructions / 1e9;

  if (a.trace) {
    const perfbench::BrokerGauges end =
        tr.span("broker.gauges", [&] { return perfbench::broker_gauges(*s); });
    tr.span("bench.probes", [&] { perfbench::run_probes(tr, w, *s, v); });

    using MC = metrics::MessageClass;
    const std::pair<MC, const char*> classes[] = {
        {MC::notification, "notification"},
        {MC::delivery, "delivery"},
        {MC::subscription_admin, "subscription_admin"},
        {MC::relocation_control, "relocation_control"},
        {MC::reexpose, "reexpose"},
        {MC::replay, "replay"},
        {MC::location_update, "location_update"},
        {MC::client_control, "client_control"},
        {MC::dropped, "dropped"}};
    for (const auto& [cls, name] : classes) {
      v[std::string("net.msgs.") + name] = static_cast<double>(in_window.count(cls));
    }
    v["net.warmup_msgs"] = static_cast<double>(at_warmup.total());
    v["net.window_instr_per_msg"] =
        in_window.total() == 0 ? 0
                               : window.instructions /
                                     static_cast<double>(in_window.total());

    v["routing.forward_entries"] = warm.forward_entries;
    v["routing.forward_tags"] = warm.forward_tags;
    v["routing.match_entries"] = warm.match_entries;
    v["routing.cover_entries"] = warm.cover_entries;
    v["broker.virtuals"] = end.virtuals;
    v["broker.replayed"] = end.replayed;
    v["broker.replay_truncated"] = end.replay_truncated;
    v["broker.reexposed"] = end.reexposed;
    v["broker.pins"] = end.pins;
    v["broker.pending_moveouts"] = end.pending_moveouts;
    v["broker.ld_transits"] = end.ld_transits;

    double filtered = 0;
    for (const scenario::ClientReport& c : report.clients) {
      filtered += static_cast<double>(c.filtered);
    }
    v["client.delivered"] = delivered;
    v["client.duplicates"] = duplicates;
    v["client.filtered"] = filtered;
    v["client.useful_share"] =
        delivered + filtered == 0 ? 0 : delivered / (delivered + filtered);
  }

  // Tearing the scenario down joins the engine's worker threads; the
  // process total below is read after that, so it holds their work even
  // if a mid-run read had missed it.
  tr.span("scenario.teardown", [&] { s.reset(); });
  v["process_ginstr"] =
      (pmu.read().instructions - process_start.instructions) / 1e9;

  if (!a.spans_path.empty()) write_spans(a.spans_path, a.workload, tr.spans());

  const std::string bytes = report.to_string();
  std::ostringstream out;
  out << "{\"workload\": " << json_string(a.workload) << ", \"seed\": " << a.seed
      << ", \"trace\": " << (a.trace ? 1 : 0) << ", \"shards\": " << a.size.shards
      << ", \"report_fnv1a\": " << json_string(fnv1a(bytes))
      << ", \"report_bytes\": " << bytes.size() << ", \"violations\": [";
  for (std::size_t i = 0; i < report.violations.size(); ++i) {
    out << (i ? ", " : "") << json_string(report.violations[i]);
  }
  out << "], \"segments_s\": [";
  for (std::size_t i = 0; i < segments_s.size(); ++i) {
    out << (i ? ", " : "") << json_number(segments_s[i]);
  }
  out << "], \"values\": {";
  bool first = true;
  for (const auto& [name, value] : v) {
    out << (first ? "" : ", ") << json_string(name) << ": " << json_number(value);
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench_rep: " << e.what() << "\n";
    return 2;
  }
}
