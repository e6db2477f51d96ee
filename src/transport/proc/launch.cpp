#include "transport/proc/launch.hpp"

#include <dirent.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <utility>

#include "common/assert.hpp"
#include "ser/serialize.hpp"
#include "telemetry/live.hpp"
#include "telemetry/telemetry.hpp"
#include "transport/shm/shm_transport.hpp"
#include "transport/socket/socket_transport.hpp"

namespace ygm::transport::proc {

namespace {

// ------------------------------------------------- telemetry lane shipping

using counters_t = std::map<std::string, std::uint64_t, std::less<>>;
using gauges_t = std::map<std::string, double, std::less<>>;
using histo_parts_t =
    std::tuple<std::array<std::uint64_t, telemetry::histogram::num_buckets>,
               std::uint64_t, double, double, double>;
using histos_t = std::map<std::string, histo_parts_t, std::less<>>;
// kind, ts_us, dur_us, vtime_us, arg0, arg1, name, arg0_name, arg1_name
// (name ids index the shipped names table; no_name passes through).
using wire_event_t =
    std::tuple<std::uint8_t, double, double, double, std::uint64_t,
               std::uint64_t, std::uint32_t, std::uint32_t, std::uint32_t>;
using lane_snapshot_t =
    std::tuple<counters_t, gauges_t, histos_t, std::vector<std::string>,
               std::vector<wire_event_t>>;

std::vector<std::byte> snapshot_lane(telemetry::recorder& rec) {
  rec.fold_fast_metrics();
  lane_snapshot_t snap;
  auto& [counters, gauges, histos, names, events] = snap;
  for (const auto& [k, v] : rec.metrics().counters()) counters.emplace(k, v);
  for (const auto& [k, v] : rec.metrics().gauges()) gauges.emplace(k, v);
  for (const auto& [k, h] : rec.metrics().histos()) {
    histos.emplace(k, histo_parts_t{h.buckets(), h.count(), h.sum(), h.min(),
                                    h.max()});
  }
  names = rec.names();
  events.reserve(rec.ring().size());
  rec.ring().for_each([&](const telemetry::trace_event& e) {
    events.emplace_back(static_cast<std::uint8_t>(e.kind), e.ts_us, e.dur_us,
                        e.vtime_us, e.arg0, e.arg1, e.name, e.arg0_name,
                        e.arg1_name);
  });
  return ser::to_bytes(snap);
}

void absorb_lane(telemetry::recorder& rec, std::span<const std::byte> blob) {
  const auto snap = ser::from_bytes<lane_snapshot_t>(blob);
  const auto& [counters, gauges, histos, names, events] = snap;
  for (const auto& [k, v] : counters) rec.metrics().counter(k) += v;
  for (const auto& [k, v] : gauges) {
    double& g = rec.metrics().gauge(k);
    if (v > g) g = v;
  }
  for (const auto& [k, parts] : histos) {
    const auto& [buckets, count, sum, mn, mx] = parts;
    rec.metrics().histo(k).merge(
        telemetry::histogram::from_parts(buckets, count, sum, mn, mx));
  }
  const auto remap = [&](std::uint32_t id) {
    if (id == telemetry::no_name || id >= names.size()) {
      return telemetry::no_name;
    }
    return rec.intern(names[id]);
  };
  for (const auto& we : events) {
    telemetry::trace_event e;
    e.kind = static_cast<telemetry::event_kind>(std::get<0>(we));
    e.ts_us = std::get<1>(we);
    e.dur_us = std::get<2>(we);
    e.vtime_us = std::get<3>(we);
    e.arg0 = std::get<4>(we);
    e.arg1 = std::get<5>(we);
    e.name = remap(std::get<6>(we));
    e.arg0_name = remap(std::get<7>(we));
    e.arg1_name = remap(std::get<8>(we));
    rec.push(e);
  }
}

// ------------------------------------------------------------ pipe framing

// status, error message, rank result, telemetry lane snapshots (the rank's
// lane, then every lane the child added to its world: its progress
// engine's)
using child_report_t =
    std::tuple<std::uint8_t, std::string, std::vector<std::byte>,
               std::vector<std::vector<std::byte>>>;

void write_fully(int fd, const std::byte* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return;  // parent died; nothing useful left to do
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

// -------------------------------------------------------- launch dir

std::string make_launch_dir(const std::string& prefix) {
  const char* tmp = std::getenv("TMPDIR");
  std::string templ = std::string(tmp != nullptr && *tmp != '\0' ? tmp : "/tmp") +
                      "/" + prefix + "-XXXXXX";
  std::vector<char> buf(templ.begin(), templ.end());
  buf.push_back('\0');
  YGM_CHECK(mkdtemp(buf.data()) != nullptr,
            std::string("mkdtemp failed: ") + std::strerror(errno));
  return std::string(buf.data());
}

void remove_launch_dir(const std::string& dir) {
  DIR* d = opendir(dir.c_str());
  if (d != nullptr) {
    while (dirent* ent = readdir(d)) {
      const std::string name = ent->d_name;
      if (name == "." || name == "..") continue;
      (void)::unlink((dir + "/" + name).c_str());
    }
    closedir(d);
  }
  (void)::rmdir(dir.c_str());
}

/// What the launcher builds before its first fork, so that a forked rank
/// joins a world that is already there: every rank's shm segment, or every
/// rank's listening socket.
struct prebuilt_world {
  std::optional<shm::world> shm;
  std::optional<socket::world> socket;

  prebuilt_world(backend_kind backend, const std::string& dir, int nranks) {
    if (backend == backend_kind::shm) {
      shm.emplace(nranks);
    } else {
      socket.emplace(dir, nranks);
    }
  }

  /// Close every descriptor of the world, so a dead rank's listener closes
  /// with it: the launcher after its last fork, a child once it joined. The
  /// launcher's shm header mappings stay, for poison().
  void close_fds() noexcept {
    if (shm) shm->close_fds();
    if (socket) socket->close_listeners();
  }

  /// In the forked child: join the world as `rank`, then close every
  /// descriptor of it (the endpoint keeps its mappings or connections).
  /// `chaos` is non-null only when fault injection is enabled.
  std::unique_ptr<transport::endpoint> join(int rank, const chaos_config* chaos,
                                            std::size_t outq_cap) {
    std::unique_ptr<transport::endpoint> ep;
    if (shm) {
      ep = std::make_unique<shm::endpoint>(*shm, rank, chaos);
    } else {
      ep = std::make_unique<socket::endpoint>(*socket, rank, chaos, outq_cap);
    }
    close_fds();
    return ep;
  }

  /// A rank died without unwinding, so it never poisoned the world. Shm
  /// peers parked on it would wait forever; socket peers see its sockets
  /// close on their own.
  void poison() noexcept {
    if (shm) shm->poison();
  }
};

bool is_abort_echo(const std::string& msg) {
  // Ranks that died *because* the world was poisoned report the generic
  // abort text; the rank that started it carries the root cause.
  return msg.find("world aborted") != std::string::npos;
}

}  // namespace

std::vector<std::vector<std::byte>> launch(
    backend_kind backend, int nranks, const std::optional<chaos_config>& chaos,
    std::size_t outq_cap, const std::string& dir_hint,
    const std::function<std::vector<std::byte>(transport::endpoint&)>& body) {
  const std::string backend_name(to_string(backend));
  YGM_CHECK(backend != backend_kind::inproc,
            "proc::launch forks one process per rank; inproc runs threads");
  YGM_CHECK(nranks > 0,
            backend_name + " launch requires a positive rank count");

  const std::string dir =
      dir_hint.empty()
          ? make_launch_dir(backend == backend_kind::shm ? "ygm-shm"
                                                         : "ygm-sock")
          : dir_hint;
  // A directory this launch made goes when the launch ends, however it
  // ends; the world, declared after it, is destroyed first.
  const struct dir_guard {
    const std::string* made;
    ~dir_guard() {
      if (made != nullptr) remove_launch_dir(*made);
    }
  } guard{dir_hint.empty() ? &dir : nullptr};
  // Every segment or listening socket exists before the first fork, so no
  // rank ever waits for a peer to appear.
  prebuilt_world world(backend, dir, nranks);
  const chaos_config* chaos_ptr =
      chaos.has_value() && chaos->enabled() ? &*chaos : nullptr;

  telemetry::session* const tsess = telemetry::global();
  const int tworld = tsess != nullptr ? tsess->begin_world(nranks) : -1;

  // All pipes exist before the first fork so each child can close every
  // descriptor that is not its own write end — otherwise a sibling holding
  // an inherited write end would keep a pipe from ever reaching EOF.
  std::vector<std::array<int, 2>> pipes(static_cast<std::size_t>(nranks));
  for (auto& p : pipes) {
    YGM_CHECK(::pipe(p.data()) == 0,
              std::string("pipe failed: ") + std::strerror(errno));
  }

  // Children inherit a copy of the parent's stdio buffers and flush them on
  // exit; drain them now so pre-run output (bench banners etc.) is not
  // replayed once per rank.
  std::fflush(nullptr);

  // Ranks check this pid in every bounded wait: a launcher killed before
  // it reaps them must not leave them running.
  note_launcher();
  std::vector<pid_t> pids(static_cast<std::size_t>(nranks), -1);
  for (int r = 0; r < nranks; ++r) {
    const pid_t pid = ::fork();
    YGM_CHECK(pid >= 0, std::string("fork failed: ") + std::strerror(errno));
    if (pid > 0) {
      pids[static_cast<std::size_t>(r)] = pid;
      continue;
    }

    // ----------------------------------------------------------- child
    for (int i = 0; i < nranks; ++i) {
      ::close(pipes[static_cast<std::size_t>(i)][0]);
      if (i != r) ::close(pipes[static_cast<std::size_t>(i)][1]);
    }
    const int out_fd = pipes[static_cast<std::size_t>(r)][1];

    // Advertise statusz endpoints through the launch directory: every
    // child binds its introspection socket next to the ranks' socket
    // files, so ygm_top can discover the whole job from the one directory.
    telemetry::live::set_statusz_dir_hint(dir);

    std::uint8_t rank_status = 0;
    std::string errmsg;
    std::vector<std::byte> result;
    {
      std::optional<telemetry::rank_scope> tscope;
      if (tsess != nullptr) tscope.emplace(*tsess, tworld, r);
      {
        telemetry::span rank_span("rank.main");
        try {
          auto ep = world.join(r, chaos_ptr, outq_cap);
          try {
            result = body(*ep);
          } catch (...) {
            ep->abort_world();
            throw;
          }
        } catch (const std::exception& e) {
          rank_status = 1;
          errmsg = e.what();
        } catch (...) {
          rank_status = 1;
          errmsg = "unknown error in " + backend_name + " rank";
        }
      }  // rank.main span recorded; endpoint stats published to the lane
    }
    std::vector<std::vector<std::byte>> lanes;
    if (tsess != nullptr) {
      lanes.push_back(snapshot_lane(tsess->rank_recorder(tworld, r)));
      for (int l = nranks; l < tsess->lane_count(tworld); ++l) {
        lanes.push_back(snapshot_lane(tsess->rank_recorder(tworld, l)));
      }
    }
    const auto report = ser::to_bytes(
        child_report_t{rank_status, errmsg, std::move(result), std::move(lanes)});
    write_fully(out_fd, report.data(), report.size());
    ::close(out_fd);
    std::fflush(nullptr);
    ::_exit(0);
  }

  // ----------------------------------------------------------- parent
  for (int r = 0; r < nranks; ++r) ::close(pipes[static_cast<std::size_t>(r)][1]);
  world.close_fds();

  // Drain every pipe to EOF before reaping: a child blocked writing a large
  // report into a full pipe must never deadlock against a parent blocked in
  // waitpid.
  std::vector<std::vector<std::byte>> raw(static_cast<std::size_t>(nranks));
  std::vector<pollfd> pfds;
  std::vector<int> pfd_rank;
  for (;;) {
    pfds.clear();
    pfd_rank.clear();
    for (int r = 0; r < nranks; ++r) {
      const int fd = pipes[static_cast<std::size_t>(r)][0];
      if (fd < 0) continue;
      pfds.push_back(pollfd{fd, POLLIN, 0});
      pfd_rank.push_back(r);
    }
    if (pfds.empty()) break;
    const int n = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), -1);
    if (n < 0 && errno == EINTR) continue;
    YGM_CHECK(n >= 0, std::string("poll failed: ") + std::strerror(errno));
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      auto& fd = pipes[static_cast<std::size_t>(pfd_rank[i])][0];
      std::byte buf[64 * 1024];
      const ssize_t got = ::read(fd, buf, sizeof(buf));
      if (got > 0) {
        auto& dst = raw[static_cast<std::size_t>(pfd_rank[i])];
        dst.insert(dst.end(), buf, buf + got);
      } else if (got == 0 || (got < 0 && errno != EINTR && errno != EAGAIN)) {
        ::close(fd);
        fd = -1;
        // No report: the rank died without unwinding (a signal, _exit).
        if (raw[static_cast<std::size_t>(pfd_rank[i])].empty()) world.poison();
      }
    }
  }

  std::vector<int> exit_codes(static_cast<std::size_t>(nranks), -1);
  for (int r = 0; r < nranks; ++r) {
    int st = 0;
    while (::waitpid(pids[static_cast<std::size_t>(r)], &st, 0) < 0 &&
           errno == EINTR) {
    }
    exit_codes[static_cast<std::size_t>(r)] =
        WIFEXITED(st) ? WEXITSTATUS(st) : 128 + WTERMSIG(st);
  }

  // Parse reports; absorb telemetry even from failed ranks (their lanes
  // show where the failure happened).
  std::vector<std::vector<std::byte>> results(static_cast<std::size_t>(nranks));
  std::string first_error;
  std::string first_real_error;  // not just an echo of the world abort
  for (int r = 0; r < nranks; ++r) {
    const auto& blob = raw[static_cast<std::size_t>(r)];
    std::string msg;
    if (blob.empty()) {
      msg = backend_name + " rank " + std::to_string(r) +
            " terminated without reporting (exit code " +
            std::to_string(exit_codes[static_cast<std::size_t>(r)]) + ")";
    } else {
      try {
        auto report = ser::from_bytes<child_report_t>(
            {blob.data(), blob.size()});
        auto& [st, err, result, lanes] = report;
        if (tsess != nullptr) {
          for (std::size_t l = 0; l < lanes.size(); ++l) {
            absorb_lane(tsess->rank_recorder(
                            tworld, l == 0 ? r : tsess->add_lane(tworld)),
                        {lanes[l].data(), lanes[l].size()});
          }
        }
        if (st == 0) {
          results[static_cast<std::size_t>(r)] = std::move(result);
        } else {
          msg = std::move(err);
        }
      } catch (const std::exception& e) {
        msg = backend_name + " rank " + std::to_string(r) +
              " sent a corrupt report: " + e.what();
      }
    }
    if (!msg.empty()) {
      if (first_error.empty()) first_error = msg;
      if (first_real_error.empty() && !is_abort_echo(msg)) {
        first_real_error = msg;
      }
    }
  }
  if (!first_error.empty()) {
    throw ygm::error(first_real_error.empty() ? first_error
                                              : first_real_error);
  }
  return results;
}

}  // namespace ygm::transport::proc
