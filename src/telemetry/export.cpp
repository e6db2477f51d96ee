// Exporters: Chrome trace_event JSON (chrome://tracing / Perfetto), flat
// metrics JSON, and an end-of-run text summary.
//
// Chrome trace layout: one process ("pid") per mpisim world launched under
// the session, one thread lane ("tid") per simulated rank, span/instant
// events on the lane that recorded them. Timestamps are microseconds since
// session start (the steady-clock epoch every lane shares). Events that
// carry a virtual-time stamp expose it as the "vt_us" arg.
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <string>

#include "telemetry/json_util.hpp"
#include "telemetry/telemetry.hpp"

namespace ygm::telemetry {

namespace {

const std::string& event_name(const std::vector<std::string>& names,
                              name_id id) {
  static const std::string unknown = "?";
  return id < names.size() ? names[id] : unknown;
}

void write_event_args(std::ostream& os, const trace_event& e,
                      const std::vector<std::string>& names) {
  bool any = false;
  const auto emit = [&](const std::string& k, const std::string& v) {
    os << (any ? "," : "") << '"' << k << "\":" << v;
    any = true;
  };
  os << ",\"args\":{";
  if (e.arg0_name != no_name) {
    emit(json_escape(event_name(names, e.arg0_name)),
         std::to_string(e.arg0));
  }
  if (e.arg1_name != no_name) {
    emit(json_escape(event_name(names, e.arg1_name)),
         std::to_string(e.arg1));
  }
  if (e.vtime_us >= 0) emit("vt_us", json_number(e.vtime_us));
  os << '}';
}

}  // namespace

void session::write_chrome_trace(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };

  // Metadata lanes first, so viewers label processes/threads even when a
  // lane recorded nothing.
  int last_world = -1;
  for_each_recorder([&](recorder& rec) {
    if (rec.world() != last_world) {
      last_world = rec.world();
      sep();
      os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << rec.world()
         << ",\"args\":{\"name\":\"world " << rec.world() << "\"}}";
    }
    sep();
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << rec.world()
       << ",\"tid\":" << rec.rank() << ",\"args\":{\"name\":\"rank "
       << rec.rank() << "\"}}";
  });

  for_each_recorder([&](recorder& rec) {
    const auto& names = rec.names();
    rec.ring().for_each([&](const trace_event& e) {
      sep();
      os << "{\"name\":\"" << json_escape(event_name(names, e.name))
         << "\",\"cat\":\"ygm\",\"ph\":\""
         << (e.kind == event_kind::complete ? 'X' : 'i') << "\",\"pid\":"
         << rec.world() << ",\"tid\":" << rec.rank()
         << ",\"ts\":" << json_number(e.ts_us);
      if (e.kind == event_kind::complete) {
        os << ",\"dur\":" << json_number(e.dur_us);
      } else {
        os << ",\"s\":\"t\"";  // instant scope: thread
      }
      write_event_args(os, e, names);
      os << '}';
    });
  });

  os << "]}\n";
}

bool session::write_chrome_trace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  write_chrome_trace(os);
  return static_cast<bool>(os);
}

namespace {

/// Emit one registry's counters/gauges/histograms sections (no outer
/// braces); `indent` is the member indentation of the enclosing object.
void write_registry_json(std::ostream& os, const metrics_registry& m,
                         const std::string& indent) {
  const std::string inner = indent + "  ";
  os << indent << "\"counters\": {";
  bool first = true;
  for (const auto& [k, v] : m.counters()) {
    os << (first ? "" : ",") << "\n" << inner << "\"" << json_escape(k)
       << "\": " << v;
    first = false;
  }
  os << "\n" << indent << "},\n" << indent << "\"gauges\": {";
  first = true;
  for (const auto& [k, v] : m.gauges()) {
    os << (first ? "" : ",") << "\n" << inner << "\"" << json_escape(k)
       << "\": " << json_number(v);
    first = false;
  }
  os << "\n" << indent << "},\n" << indent << "\"histograms\": {";
  first = true;
  for (const auto& [k, h] : m.histos()) {
    os << (first ? "" : ",") << "\n" << inner << "\"" << json_escape(k)
       << "\": {"
       << "\"count\": " << h.count() << ", \"sum\": " << json_number(h.sum())
       << ", \"min\": " << json_number(h.min())
       << ", \"mean\": " << json_number(h.mean())
       << ", \"p50\": " << json_number(h.percentile(0.50))
       << ", \"p90\": " << json_number(h.percentile(0.90))
       << ", \"p99\": " << json_number(h.percentile(0.99))
       << ", \"max\": " << json_number(h.max()) << '}';
    first = false;
  }
  os << "\n" << indent << "}";
}

}  // namespace

void session::write_metrics_json(std::ostream& os) const {
  const metrics_registry m = merged_metrics();
  os << "{\n";
  write_registry_json(os, m, "  ");
  // A session reused across several ygm::launch calls holds one lane group
  // per run; the top-level sections above merge ALL of them (a gauge keeps
  // the max across stale worlds). Emit each world separately too, so
  // consumers can attribute metrics to the run that produced them.
  const int nworlds = world_count();
  if (nworlds > 1) {
    os << ",\n  \"worlds\": [";
    for (int w = 0; w < nworlds; ++w) {
      os << (w == 0 ? "" : ",") << "\n    {\n      \"world\": " << w << ",\n";
      write_registry_json(os, merged_metrics(w), "      ");
      os << "\n    }";
    }
    os << "\n  ]";
  }
  os << "\n}\n";
}

bool session::write_metrics_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  write_metrics_json(os);
  return static_cast<bool>(os);
}

void session::print_summary(std::FILE* out) const {
  const metrics_registry m = merged_metrics();
  std::fprintf(out, "\n== telemetry summary (all worlds, all ranks) ==\n");
  if (m.empty()) {
    std::fprintf(out, "  (nothing recorded)\n");
    return;
  }
  if (!m.counters().empty()) {
    std::fprintf(out, "  %-34s %14s\n", "counter", "total");
    for (const auto& [k, v] : m.counters()) {
      std::fprintf(out, "  %-34s %14" PRIu64 "\n", k.c_str(), v);
    }
  }
  if (!m.gauges().empty()) {
    std::fprintf(out, "  %-34s %14s\n", "gauge", "max");
    for (const auto& [k, v] : m.gauges()) {
      std::fprintf(out, "  %-34s %14g\n", k.c_str(), v);
    }
  }
  if (!m.histos().empty()) {
    std::fprintf(out, "  %-34s %10s %10s %10s %10s %10s\n", "histogram",
                 "count", "mean", "p50", "p99", "max");
    for (const auto& [k, h] : m.histos()) {
      std::fprintf(out, "  %-34s %10" PRIu64 " %10.4g %10.4g %10.4g %10.4g\n",
                   k.c_str(), h.count(), h.mean(), h.percentile(0.5),
                   h.percentile(0.99), h.max());
    }
  }
}

}  // namespace ygm::telemetry
