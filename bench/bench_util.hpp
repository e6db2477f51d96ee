// Shared infrastructure for the figure-reproduction benches.
//
// Every bench reports two kinds of rows (see DESIGN.md §2):
//   [executed] the real mailbox running on mpisim rank-threads at a scale
//              one host can execute (up to ~32 ranks, so up to 8 threads
//              per core on a 4-core host), with wall time AND the time its
//              recorded traffic would cost on the modeled Quartz-like
//              network (which needs no free core: it is computed from the
//              recorded traffic, not timed);
//   [model]    the analytic evaluator sweeping the same workload to the
//              paper's full scale (up to 1024 nodes x 36 cores).
// The executed rows validate the model's ordering where both exist.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/evaluator.hpp"
#include "net/params.hpp"
#include "routing/router.hpp"
#include "telemetry/causal.hpp"
#include "telemetry/json_util.hpp"
#include "telemetry/telemetry.hpp"

namespace ygm::bench {

/// Machine constants of the paper's experiments.
inline constexpr int paper_cores_per_node = 36;  // Quartz: 2x 18-core Xeon
inline constexpr std::size_t paper_mailbox_bytes = std::size_t{1} << 18;

/// The paper's rule of thumb (§VI): NLNR is not used below 32 nodes, where
/// a layer cannot form and Node Remote is the better choice.
inline bool scheme_applicable(routing::scheme_kind k, int nodes) {
  return k != routing::scheme_kind::nlnr || nodes >= 32;
}

/// Node counts the paper's scaling plots sweep.
inline std::vector<int> paper_node_counts() {
  return {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};
}

// ----------------------------------------------------------- flag parsing

inline bool has_flag(int argc, char** argv, const std::string& name) {
  const std::string key = "--" + name;
  for (int i = 1; i < argc; ++i) {
    if (key == argv[i]) return true;
  }
  return false;
}

inline std::int64_t flag_int(int argc, char** argv, const std::string& name,
                             std::int64_t fallback) {
  const std::string key = "--" + name;
  for (int i = 1; i + 1 < argc; ++i) {
    if (key == argv[i]) return std::stoll(argv[i + 1]);
  }
  return fallback;
}

/// String-valued flag, accepted as "--name value" or "--name=value".
inline std::string flag_str(int argc, char** argv, const std::string& name,
                            const std::string& fallback = "") {
  const std::string key = "--" + name;
  const std::string key_eq = key + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == key && i + 1 < argc) return argv[i + 1];
    if (arg.rfind(key_eq, 0) == 0) return arg.substr(key_eq.size());
  }
  return fallback;
}

/// Double-valued flag, accepted as "--name value" or "--name=value".
inline double flag_double(int argc, char** argv, const std::string& name,
                          double fallback) {
  const std::string s = flag_str(argc, argv, name);
  return s.empty() ? fallback : std::stod(s);
}

// ------------------------------------------------------------- telemetry

/// Catch telemetry-flag typos: any argument spelled like one of our
/// namespaced flag families (`--trace-*`, `--telemetry-*`) that is not a
/// flag we actually parse is a hard usage error. These flags silently
/// change what gets recorded; a typo like `--trace-sampel=1` must not
/// silently run untraced.
inline void check_telemetry_flags(int argc, char** argv) {
  static constexpr std::string_view known[] = {
      "--trace-out", "--trace-sample", "--telemetry-summary"};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--trace-", 0) != 0 && arg.rfind("--telemetry-", 0) != 0) {
      continue;
    }
    const std::string_view name = arg.substr(0, arg.find('='));
    bool ok = false;
    for (const auto k : known) ok = ok || name == k;
    if (ok) continue;
    std::fprintf(stderr,
                 "error: unknown telemetry flag '%s'\n"
                 "known flags: --trace-out=<file> --trace-sample=<rate> "
                 "--telemetry-summary\n"
                 "             --metrics-out=<file> --postmortem-out=<file> "
                 "--stall-timeout-ms=<ms>\n",
                 std::string(name).c_str());
    std::exit(2);
  }
}

// ------------------------------------------------------------ JSON report
//
// `--bench-json=<file>` makes every bench emit its result tables (and any
// programmatic metrics registered with add_metric) as one JSON document, in
// addition to the text tables. One call measures once; tools/bench_ab.py
// repeats calls and builds the BENCH_* files from their metrics. Sections
// follow banner() calls; every table printed under a banner lands in that
// section.

/// Reject malformed `--bench-json` spellings with exit 2, exactly like the
/// `--trace-*` family: a typo must not silently run without the report.
inline void check_bench_flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--bench-", 0) != 0) continue;
    const auto eq = arg.find('=');
    const std::string_view name = arg.substr(0, eq);
    std::string_view value;
    if (eq != std::string_view::npos) {
      value = arg.substr(eq + 1);
    } else if (name == "--bench-json" && i + 1 < argc &&
               argv[i + 1][0] != '-') {
      value = argv[i + 1];
    }
    if (name != "--bench-json" || value.empty()) {
      std::fprintf(stderr,
                   "error: malformed bench flag '%s'\n"
                   "known form: --bench-json=<file>\n",
                   std::string(arg).c_str());
      std::exit(2);
    }
  }
}

class json_report {
 public:
  static json_report& instance() {
    static json_report r;
    return r;
  }

  void enable(std::string path, std::string bench_name) {
    path_ = std::move(path);
    bench_ = std::move(bench_name);
  }

  bool enabled() const noexcept { return !path_.empty(); }

  /// Start a new section (banner() calls this; title/note mirror the text
  /// output). Inert unless enabled.
  void begin_section(std::string title, std::string note) {
    if (!enabled()) return;
    sections_.push_back({std::move(title), std::move(note), {}, {}});
  }

  /// Record one printed table into the current section.
  void add_table(const std::vector<std::string>& headers,
                 const std::vector<std::vector<std::string>>& rows) {
    if (!enabled()) return;
    current().tables.emplace_back(headers, rows);
  }

  /// Attach a named numeric result to the current section (for values a
  /// table formats lossily — parse-back tooling reads these).
  void add_metric(std::string key, double value) {
    if (!enabled()) return;
    current().metrics.emplace_back(std::move(key), value);
  }

  /// Write the document; returns false on I/O failure. Called by the
  /// telemetry_guard destructor — benches never call it directly.
  bool write() const {
    if (!enabled()) return true;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) return false;
    namespace tj = ygm::telemetry;
    std::fprintf(f, "{\"bench\": \"%s\",\n \"sections\": [",
                 tj::json_escape(bench_).c_str());
    for (std::size_t s = 0; s < sections_.size(); ++s) {
      const auto& sec = sections_[s];
      std::fprintf(f, "%s\n  {\"title\": \"%s\", \"note\": \"%s\",\n",
                   s == 0 ? "" : ",", tj::json_escape(sec.title).c_str(),
                   tj::json_escape(sec.note).c_str());
      std::fprintf(f, "   \"tables\": [");
      for (std::size_t t = 0; t < sec.tables.size(); ++t) {
        const auto& [headers, rows] = sec.tables[t];
        std::fprintf(f, "%s{\"headers\": [", t == 0 ? "" : ", ");
        for (std::size_t c = 0; c < headers.size(); ++c) {
          std::fprintf(f, "%s\"%s\"", c == 0 ? "" : ", ",
                       tj::json_escape(headers[c]).c_str());
        }
        std::fprintf(f, "], \"rows\": [");
        for (std::size_t r = 0; r < rows.size(); ++r) {
          std::fprintf(f, "%s[", r == 0 ? "" : ", ");
          for (std::size_t c = 0; c < rows[r].size(); ++c) {
            std::fprintf(f, "%s\"%s\"", c == 0 ? "" : ", ",
                         tj::json_escape(rows[r][c]).c_str());
          }
          std::fputc(']', f);
        }
        std::fprintf(f, "]}");
      }
      std::fprintf(f, "],\n   \"metrics\": {");
      for (std::size_t m = 0; m < sec.metrics.size(); ++m) {
        std::fprintf(f, "%s\"%s\": %s", m == 0 ? "" : ", ",
                     tj::json_escape(sec.metrics[m].first).c_str(),
                     tj::json_number(sec.metrics[m].second).c_str());
      }
      std::fprintf(f, "}}");
    }
    std::fprintf(f, "\n]}\n");
    const bool ok = std::ferror(f) == 0;
    std::fclose(f);
    return ok;
  }

  const std::string& path() const noexcept { return path_; }

 private:
  struct section {
    std::string title;
    std::string note;
    std::vector<std::pair<std::vector<std::string>,
                          std::vector<std::vector<std::string>>>>
        tables;
    std::vector<std::pair<std::string, double>> metrics;
  };

  section& current() {
    if (sections_.empty()) sections_.push_back({"", "", {}, {}});
    return sections_.back();
  }

  std::string path_;
  std::string bench_;
  std::vector<section> sections_;
};

/// Per-bench telemetry driver. Construct first thing in main(); when any of
///   --trace-out=<file>.json     Chrome trace_event JSON (chrome://tracing
///                               or https://ui.perfetto.dev)
///   --metrics-out=<file>.json   merged counters/gauges/histograms
///   --telemetry-summary         end-of-run text summary table
///   --trace-sample=<rate>       causal-tracing sample rate in [0, 1]
///   --postmortem-out=<file>     stall-watchdog flight-recorder destination
///                               (arms a 10 s watchdog if none configured)
///   --stall-timeout-ms=<ms>     stall-watchdog window (0 disables)
///   --bench-json=<file>         JSON report of every table + metric
///   YGM_TELEMETRY=1             environment fallback (implies summary)
/// is present, a telemetry session is installed globally, every ygm::launch
/// in the bench records per-rank lanes, and the destructor writes the
/// requested outputs. With none present no session exists and the
/// instrumentation costs one thread-local load + branch per hook. Unknown
/// `--trace-*`/`--telemetry-*` flags are rejected with exit code 2.
class telemetry_guard {
 public:
  telemetry_guard(int argc, char** argv)
      : trace_out_(flag_str(argc, argv, "trace-out")),
        metrics_out_(flag_str(argc, argv, "metrics-out")),
        summary_(has_flag(argc, argv, "telemetry-summary")) {
    check_telemetry_flags(argc, argv);
    check_bench_flags(argc, argv);
    const std::string bench_json = flag_str(argc, argv, "bench-json");
    if (!bench_json.empty()) {
      std::string name = argc > 0 ? argv[0] : "bench";
      const auto slash = name.find_last_of('/');
      if (slash != std::string::npos) name = name.substr(slash + 1);
      json_report::instance().enable(bench_json, std::move(name));
    }
    const double sample = flag_double(argc, argv, "trace-sample", -1);
    const std::string postmortem = flag_str(argc, argv, "postmortem-out");
    const double stall_ms = flag_double(argc, argv, "stall-timeout-ms", -1);
    if (sample >= 0) telemetry::causal::set_sample_rate(sample);
    if (!postmortem.empty()) {
      telemetry::causal::set_postmortem_path(postmortem);
    }
    if (stall_ms >= 0) telemetry::causal::set_stall_timeout_ms(stall_ms);
    if (!postmortem.empty() && telemetry::causal::stall_timeout_ms() <= 0) {
      telemetry::causal::set_stall_timeout_ms(10000);
    }
    const char* env = std::getenv("YGM_TELEMETRY");
    if (env != nullptr && env[0] != '\0' && env[0] != '0') summary_ = true;
    // Causal tracing and the watchdog both need per-rank lanes, so either
    // knob forces a session even without an export destination.
    const bool lanes_needed = sample > 0 || !postmortem.empty() ||
                              telemetry::causal::stall_timeout_ms() > 0;
    if (trace_out_.empty() && metrics_out_.empty() && !summary_ &&
        !lanes_needed) {
      return;
    }
    session_ = std::make_unique<telemetry::session>();
    telemetry::set_global(session_.get());
  }

  ~telemetry_guard() {
    auto& report = json_report::instance();
    if (report.enabled()) {
      if (report.write()) {
        std::fprintf(stderr, "bench: wrote JSON report to %s\n",
                     report.path().c_str());
      } else {
        std::fprintf(stderr, "bench: FAILED to write %s\n",
                     report.path().c_str());
      }
    }
    if (session_ == nullptr) return;
    telemetry::set_global(nullptr);
    if (!trace_out_.empty()) {
      if (session_->write_chrome_trace(trace_out_)) {
        std::fprintf(stderr, "telemetry: wrote Chrome trace to %s\n",
                     trace_out_.c_str());
      } else {
        std::fprintf(stderr, "telemetry: FAILED to write %s\n",
                     trace_out_.c_str());
      }
    }
    if (!metrics_out_.empty()) {
      if (session_->write_metrics_json(metrics_out_)) {
        std::fprintf(stderr, "telemetry: wrote metrics to %s\n",
                     metrics_out_.c_str());
      } else {
        std::fprintf(stderr, "telemetry: FAILED to write %s\n",
                     metrics_out_.c_str());
      }
    }
    if (summary_) session_->print_summary();
  }

  telemetry_guard(const telemetry_guard&) = delete;
  telemetry_guard& operator=(const telemetry_guard&) = delete;

  bool active() const noexcept { return session_ != nullptr; }
  telemetry::session* session() const noexcept { return session_.get(); }

 private:
  std::string trace_out_;
  std::string metrics_out_;
  bool summary_ = false;
  std::unique_ptr<telemetry::session> session_;
};

// ---------------------------------------------------------- table output

/// Minimal fixed-width table printer (plain text, one row per line).
class table {
 public:
  explicit table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void print() const {
    json_report::instance().add_table(headers_, rows_);
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      width[c] = headers_[c].size();
    }
    for (const auto& row : rows_) {
      for (std::size_t c = 0; c < row.size() && c < width.size(); ++c) {
        width[c] = std::max(width[c], row[c].size());
      }
    }
    const auto line = [&](const std::vector<std::string>& cells) {
      std::string out = "  ";
      for (std::size_t c = 0; c < width.size(); ++c) {
        const std::string& cell = c < cells.size() ? cells[c] : "";
        out += cell;
        out.append(width[c] - cell.size() + 2, ' ');
      }
      std::puts(out.c_str());
    };
    line(headers_);
    std::string rule;
    for (auto w : width) rule.append(w + 2, '-');
    std::printf("  %s\n", rule.c_str());
    for (const auto& row : rows_) line(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(double v, int precision = 3) {
  char buf[64];
  if (v != 0 && (v < 1e-3 || v >= 1e7)) {
    std::snprintf(buf, sizeof buf, "%.*e", precision - 1, v);
  } else {
    std::snprintf(buf, sizeof buf, "%.*g", precision + 2, v);
  }
  return buf;
}

inline std::string fmt_int(double v) {
  char buf[64];
  if (v >= 1e7) {
    std::snprintf(buf, sizeof buf, "%.2e", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  }
  return buf;
}

/// Section banner shared by all benches. Also opens a new section in the
/// --bench-json report, so tables printed after a banner land under it.
inline void banner(const std::string& title, const std::string& note) {
  json_report::instance().begin_section(title, note);
  std::printf("\n== %s ==\n", title.c_str());
  if (!note.empty()) std::printf("%s\n", note.c_str());
}

}  // namespace ygm::bench
