// The YGM mailbox (paper §IV) — the library's public centerpiece.
//
// A mailbox is created with a receive callback and a capacity. send() and
// send_bcast() queue messages into per-next-hop coalescing buffers; when the
// queued volume reaches capacity the rank enters a communication context
// (an *exchange*): it flushes its buffers and drains whatever has already
// arrived — delivering messages addressed to it and forwarding messages it
// holds as a routing intermediary — then returns to computation. No global
// barrier is involved, so fast ranks are never tied to the slowest rank
// (pseudo-asynchronicity), yet capacity-triggered exchanges keep a slow
// rank from accumulating unbounded unhandled messages.
//
// Message addressing is delegated entirely to the routing scheme of the
// comm_world (paper §III): each queued record is keyed by the world's
// next_hop() (the scheme's answers, tabulated once per world), so the
// node-local / node-remote / NLNR exchange phases emerge from repeated
// forwarding without the mailbox knowing the scheme. Broadcasts (paper
// §III's asynchronous SEND_BCAST) ride the same machinery via the world's
// bcast_next_hops().
//
// Per-record cost: each next hop's coalescing buffer is a packet_builder
// (core/packet.hpp), whose spare room grows a chunk at a time. A message
// type the archive encodes as its own object bytes (ser::is_bitwise_v) of
// at most one cache line is appended with one room check and raw stores;
// every other type is serialized in place. Every bitwise type is copied out
// on delivery once, straight into the object the callback sees, with no
// archive. Relays — forwards and broadcast fan-out — copy the encoded
// record verbatim, with one memcpy.
//
// Termination (paper §IV-B): wait_empty() blocks until globally quiescent
// (collective: every rank must call it); test_empty() is the nonblocking
// variant for applications that drive external work queues.
//
// Receive callbacks may themselves send() and send_bcast(), producing the
// data-dependent cascades the paper targets (BFS frontiers, label
// propagation, ...).
//
// Progress engine (core/progress.hpp): when ygm::launch installed an engine
// and the world is untimed, the mailbox registers a pump and switches to
// engine mode — every public operation then takes a per-mailbox recursive
// mutex, and the engine thread (always via try-lock, never blocking the
// rank) drains the transport, forwards intermediary records, and batches
// deliveries addressed to this rank onto a bounded lock-free ring the rank
// consumes at its next poll()/test_empty(). In polling mode the lock is
// never constructed-locked — the hot path keeps its historical
// zero-synchronization shape (one branch). Termination rounds are advanced
// by the engine only while the rank is parked inside wait_empty(); a
// quiescence verdict the engine consumed is preserved in quiescence_seen_
// for the rank's next test.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <new>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "core/buffer_pool.hpp"
#include "core/comm_world.hpp"
#include "core/exchange_claim.hpp"
#include "core/packet.hpp"
#include "core/progress.hpp"
#include "core/stats.hpp"
#include "core/termination.hpp"
#include "ser/serialize.hpp"
#include "telemetry/causal.hpp"
#include "telemetry/telemetry.hpp"

namespace ygm::core {

/// Default coalescing capacity: 2^18 bytes, the mailbox size used by the
/// paper's scaling experiments (Figs. 6-8).
inline constexpr std::size_t default_mailbox_capacity = std::size_t{1} << 18;

template <class Msg>
class mailbox {
 public:
  using recv_callback = std::function<void(const Msg&)>;

  /// Every rank of the world must construct its mailboxes in the same order
  /// (they consume matching tag blocks). `capacity_bytes` bounds the total
  /// queued record volume before an exchange is triggered.
  mailbox(comm_world& world, recv_callback on_recv,
          std::size_t capacity_bytes = default_mailbox_capacity)
      : world_(&world),
        rank_(world.rank()),
        size_(world.size()),
        on_recv_(std::move(on_recv)),
        capacity_(capacity_bytes),
        // Tag block: data, credit acks, then the termination detector.
        data_tag_(world.reserve_tag_block(2 + termination_detector::tags_used)),
        term_(world, data_tag_ + 2),
        buffers_(static_cast<std::size_t>(world.size())),
        record_counts_(static_cast<std::size_t>(world.size()), 0),
        credit_budget_(world.credit_bytes() == 0
                           ? 0
                           : std::max(world.credit_bytes(), 2 * capacity_bytes)),
        credit_ack_threshold_(credit_budget_ / 4),
        credit_used_(static_cast<std::size_t>(world.size()), 0),
        credit_owed_(static_cast<std::size_t>(world.size()), 0),
        pending_traces_(static_cast<std::size_t>(world.size())) {
    YGM_CHECK(capacity_ > 0, "mailbox capacity must be positive");
    YGM_CHECK(on_recv_ != nullptr, "mailbox requires a receive callback");
    YGM_CHECK(world.size() < packet_credit_escape,
              "world size collides with the reserved escape-record ranks");
    // Register with the rank's progress station. Engine mode needs an
    // attached engine AND an untimed world — the virtual clock is
    // rank-thread state no other thread may advance. Timed (or polling)
    // worlds still register the rank-side closures so the ygm::progress
    // facade works uniformly.
    station_ = &world.progress_station();
    engine_mode_ = station_->engine_attached() && !world.timed();
    pump_ = std::make_shared<progress::pump>();
    pump_->rank_poll = [this] { poll(); };
    pump_->rank_quiesce = [this] { wait_empty(); };
    if (engine_mode_) {
      deferred_ =
          std::make_unique<progress::mpsc_ring<std::vector<std::byte>>>(
              progress::deferred_ring_slots);
      pump_->engine_advance = [this](bool inline_deliveries) {
        return engine_advance(inline_deliveries);
      };
    }
    station_->add_pump(pump_);
  }

  mailbox(const mailbox&) = delete;
  mailbox& operator=(const mailbox&) = delete;

  /// Teardown publishes this mailbox's counters into the rank's telemetry
  /// registry (when one is attached); several mailboxes on one rank sum.
  ~mailbox() {
    // After remove_pump returns the engine can never touch this mailbox
    // again (it disables the pump and waits out any steal in flight), so
    // the rest of teardown is single-threaded.
    station_->remove_pump(pump_);
    if (auto* rec = telemetry::tls()) stats_.publish(rec->metrics());
  }

  // ------------------------------------------------------------- sending

  /// Queue a point-to-point message for rank `dest` (paper SEND). Messages
  /// to self are delivered immediately through the callback.
  void send(int dest, const Msg& m) {
    YGM_CHECK(dest >= 0 && dest < size_, "send destination invalid");
    auto lk = engine_lock();
    ++stats_.app_sends;
    if (dest == rank_) {
      if (world_->serialize_self_sends()) {
        // Debug/chaos path: round-trip rank-local deliveries through ser::
        // like any remote message, so asymmetric serialize() bugs surface
        // in single-rank runs too. A pooled local buffer — the callback may
        // itself send().
        auto buf = buffer_pool::local().acquire();
        ser::append_bytes(m, buf);
        deliver({buf.data(), buf.size()});
        buffer_pool::local().release(std::move(buf));
        return;
      }
      ++stats_.deliveries;
      telemetry::add(telemetry::fast_counter::deliveries);
      on_recv_(m);
      return;
    }
    // Causal-tracing sampling decision: deterministic in (origin, seq), so
    // the same run samples the same messages. Self-sends (above) never hit
    // the wire and are not sampled.
    telemetry::causal::wire_ctx tc;
    const bool traced = telemetry::causal::try_begin(
        rank_, trace_seq_++, static_cast<std::uint32_t>(data_tag_), tc);
    const int nh = world_->next_hop(dest);
    credit_gate(nh, lk);
    world_->virtual_charge_events(1);
    std::size_t before = 0;
    packet_builder& buf = begin_record(nh, before);
    if (traced) append_trace_escape(buf, tc);
    append_message(buf, /*is_bcast=*/false, dest, m);
    if (traced) note_trace_pending(nh, tc, len_hint_);
    finish_record(nh, buf, before);
    if (in_exchange_.load(std::memory_order_relaxed) &&
        queued_bytes_ >= capacity_) {
      flush();
    }
    maybe_exchange();
  }

  /// Queue a broadcast to every other rank (paper SEND_BCAST). Delivered
  /// exactly once at every rank except the origin, along the routing
  /// scheme's broadcast tree.
  void send_bcast(const Msg& m) {
    auto lk = engine_lock();
    ++stats_.app_bcasts;
    const std::span<const int> hops = world_->bcast_next_hops(rank_);
    if (hops.empty()) return;
    // Gate every hop before the first record exists: a mid-fan-out stall
    // would pump progress while holding a span into a coalescing buffer.
    for (const int nh : hops) credit_gate(nh, lk);
    // Encode once into the first hop's buffer; the siblings copy that
    // record verbatim. The inline-flush check is deferred past the fan-out
    // so a mid-loop flush cannot invalidate the span.
    world_->virtual_charge_events(1);
    std::size_t before = 0;
    packet_builder& fbuf = begin_record(hops[0], before);
    const std::size_t rec_at = fbuf.size();
    append_message(fbuf, /*is_bcast=*/true, rank_, m);
    finish_record(hops[0], fbuf, before);
    // Valid across the fan-out: the siblings append to other builders.
    const std::span<const std::byte> record = fbuf.bytes().subspan(rec_at);
    for (std::size_t i = 1; i < hops.size(); ++i) {
      enqueue(hops[i], record, len_hint_, nullptr, /*defer_flush=*/true);
    }
    if (in_exchange_.load(std::memory_order_relaxed) &&
        queued_bytes_ >= capacity_) {
      flush();
    }
    maybe_exchange();
  }

  // ------------------------------------------------------------ progress

  /// Opportunistically deliver and forward whatever has arrived, without
  /// blocking. Useful for ranks acting mostly as intermediaries while they
  /// compute.
  void poll() {
    // Lock-free early-out: if the engine (or an outer frame) is mid-drain,
    // there is nothing useful to add — and skipping before the mutex keeps
    // a reentrant callback poll from serializing against the engine. This
    // unguarded read is why in_exchange_ must be atomic.
    if (engine_mode_ && in_exchange_.load(std::memory_order_acquire)) return;
    const auto lk = engine_lock();
    if (engine_mode_) drain_deferred_locked();
    poll_incoming();
    if (queued_bytes_ >= capacity_) flush();
  }

  /// Flush all coalescing buffers to their next hops, even partially full
  /// ones (the paper's "including empty buffers" flush on termination).
  void flush() {
    const auto lk = engine_lock();
    const std::size_t flushed_bytes = queued_bytes_;
    // Live occupancy gauge, sampled at flush time: the window max is the
    // coalescing high-water mark, at per-flush (not per-message) cost.
    telemetry::live::gauge_set(telemetry::live::gauge::queued_bytes,
                               static_cast<double>(flushed_bytes));
    bool any = false;
    for (int nh : nonempty_) {
      flush_buffer(nh);
      any = true;
    }
    nonempty_.clear();
    queued_bytes_ = 0;
    if (any) {
      ++stats_.flushes;
      telemetry::instant("mailbox.flush", "bytes", flushed_bytes,
                         world_->timed() ? world_->virtual_now() * 1e6 : -1);
    }
  }

  // ---------------------------------------------------------- termination

  /// Nonblocking global-quiescence test (paper TEST_EMPTY). Flushes local
  /// buffers, makes progress, and returns true only once every rank has
  /// stopped producing messages and all hops have been received globally.
  /// Every rank must keep polling for detection to complete. Called from
  /// inside a receive callback it only flushes and returns false.
  bool test_empty() {
    auto lk = engine_lock();
    return test_empty_locked();
  }

  /// Block until global quiescence (paper WAIT_EMPTY). Collective: every
  /// rank of the world must call it. Keeps draining and forwarding while
  /// waiting, so intermediaries stay live until everyone is done.
  void wait_empty() {
    // Blocking loop over the SAME tree detector as test_empty(). The two
    // must share one protocol: an earlier version ran its own blocking
    // allreduce rounds here, which deadlocked whenever some ranks sat in
    // wait_empty while others polled test_empty — the allreduce ranks
    // blocked on a collective the polling ranks never entered.
    telemetry::span sp("mailbox.wait_empty");
    telemetry::causal::stall_watchdog wd;
    if (!engine_mode_) {
      while (!test_empty()) {
        wd.poll({stats_.hops_sent, stats_.hops_received, term_.rounds(),
                 queued_bytes_, credit_budget_, credit_max_in_flight(),
                 stats_.credit_stalls});
        std::this_thread::yield();
      }
    } else {
      // Engine mode: park between tests instead of spinning. While parked
      // the engine may advance this mailbox — including its termination
      // rounds, the one window where that is sound (a parked rank produces
      // nothing, so it cannot invalidate a quiescence verdict). The short
      // wait bound keeps the rank self-sufficient (liveness does not
      // depend on the engine, which may be busy elsewhere) and feeds the
      // stall watchdog.
      std::unique_lock lk(mx_);
      while (!test_empty_locked()) {
        pump_->parked.store(true, std::memory_order_release);
        park_cv_.wait_for(lk, std::chrono::milliseconds(1));
        pump_->parked.store(false, std::memory_order_release);
        wd.poll({stats_.hops_sent, stats_.hops_received, term_.rounds(),
                 queued_bytes_, credit_budget_, credit_max_in_flight(),
                 stats_.credit_stalls});
      }
    }
    sp.arg("hops_sent", stats_.hops_sent);
    if (world_->timed()) sp.vtime_seconds(world_->virtual_now());
  }

  // ----------------------------------------------------------- inspection

  const mailbox_stats& stats() const noexcept { return stats_; }
  comm_world& world() const noexcept { return *world_; }
  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t queued_bytes() const noexcept { return queued_bytes_; }
  /// Effective per-destination flow-control budget (0 = credit disabled).
  /// May exceed comm_world::credit_bytes(): clamped to >= 2x capacity so a
  /// stalled sender's unacked bytes always cross the receiver's eager-ack
  /// threshold (docs/BACKPRESSURE.md).
  std::size_t credit_budget() const noexcept { return credit_budget_; }
  /// High-water mark of unacked in-flight bytes toward any one destination;
  /// with credit on this never exceeds credit_budget().
  std::uint64_t credit_peak_in_flight() const noexcept { return credit_peak_; }

 private:
  // ------------------------------------------------- record-append pieces
  //
  // The send/forward hot paths share three steps: begin_record (pool
  // acquire + arrival-stamp slot, returns the pre-record size), the record
  // bytes themselves (append_message, or a verbatim copy of an encoded
  // record), and finish_record (byte/record accounting).

  /// Messages whose archive encoding is their object bytes and that fit one
  /// cache line are appended with raw stores; larger ones are serialized in
  /// place, to the same bytes. (deliver() skips the archive for every
  /// bitwise message.) The cap stays because GCC expands a constant 1 KiB
  /// memcpy inline as `rep movsq`, which is slow on the benchmark's 1 KiB
  /// shm records (bulk_local; docs/PERF.md, "Life of a message").
  static constexpr bool bitwise_records =
      ser::is_bitwise_v<Msg> && sizeof(Msg) <= 64;

  /// How far handle_packet reads ahead of the record it parses.
  static constexpr std::size_t prefetch_bytes = 4096;

  /// Encode one message record at the end of `buf`. Afterwards len_hint_
  /// holds its payload size.
  void append_message(packet_builder& buf, bool is_bcast, int addr,
                      const Msg& m) {
    if constexpr (bitwise_records) {
      packet_append_bitwise(buf, is_bcast, addr, m);
      len_hint_ = sizeof(Msg);
    } else {
      // Zero-copy: serialize straight into the coalescing buffer's record
      // slot (no scratch round-trip). The previous payload size seeds the
      // length-slot width, so fixed-size message streams never shift bytes.
      len_hint_ = packet_append_inplace(buf.vec(), is_bcast, addr, len_hint_,
                                        [&](std::vector<std::byte>& out) {
                                          ser::append_bytes(m, out);
                                        })
                      .payload_size;
      buf.sync();
    }
  }

  /// `before_out` is sampled ahead of the arrival-stamp reservation so the
  /// 8-byte stamp counts toward queued_bytes_: capacity triggering and the
  /// byte counters must agree with the bytes that actually hit the wire.
  packet_builder& begin_record(int next_hop, std::size_t& before_out) {
    YGM_ASSERT(next_hop != rank_);
    packet_builder& buf = buffers_[static_cast<std::size_t>(next_hop)];
    before_out = buf.size();
    if (buf.empty()) {
      // A flushed packet was moved to the transport; recycle drained
      // capacity from this rank's pool instead of re-paying the growth
      // chain (docs/PERF.md has the ownership lifecycle).
      if (buf.capacity() == 0) {
        buf.adopt(buffer_pool::local().acquire(
            std::min<std::size_t>(capacity_, 4096)));
      }
      nonempty_.push_back(next_hop);
      // Reserve the packet's arrival-time slot (virtual-time mode).
      if (world_->timed()) {
        buf.vec().resize(sizeof(double));
        buf.sync();
      }
    }
    return buf;
  }

  void finish_record(int next_hop, const packet_builder& buf,
                     std::size_t before) {
    queued_bytes_ += buf.size() - before;
    ++record_counts_[static_cast<std::size_t>(next_hop)];
  }

  /// This world's routing scheme as a live-sketch index (the enum order is
  /// pinned against telemetry/live.hpp's kSchemeNames by router.cpp).
  unsigned scheme_index() const noexcept {
    return static_cast<unsigned>(world_->route().kind());
  }

  /// Live end-to-end latency feed: one sketch sample per traced delivery,
  /// measured against the origin's wire-stamped send time. All lanes share
  /// one session clock (socket children inherit the pre-fork epoch), so the
  /// difference is meaningful across ranks; a zero stamp means the origin
  /// thread had no lane — skip.
  void note_live_e2e(const telemetry::causal::wire_ctx& c) noexcept {
    if (c.origin_us <= 0) return;
    const double e2e_us = telemetry::now_us() - c.origin_us;
    if (e2e_us < 0) return;
    telemetry::live::note_latency(scheme_index(),
                                  telemetry::live::latency_kind::e2e, e2e_us);
  }

  /// Annotation record first, so the receiver sees the context before the
  /// message it describes. It adds wire bytes (counted by finish_record)
  /// but is not a message hop: record_counts_ and hops_sent exclude it.
  void append_trace_escape(std::vector<std::byte>& buf,
                           const telemetry::causal::wire_ctx& trace) {
    trace_scratch_.clear();
    telemetry::causal::encode_wire(trace, trace_scratch_);
    packet_append(buf, /*is_bcast=*/false, packet_trace_escape,
                  trace_scratch_);
    telemetry::count("trace.annotated_records");
  }

  void append_trace_escape(packet_builder& buf,
                           const telemetry::causal::wire_ctx& trace) {
    append_trace_escape(buf.vec(), trace);
    buf.sync();
  }

  /// Encoded size of one trace escape record.
  static constexpr std::size_t trace_escape_bytes = packet_record_size(
      packet_trace_escape, telemetry::causal::wire_ctx_bytes);

  void note_trace_pending(int next_hop,
                          const telemetry::causal::wire_ctx& trace,
                          std::size_t payload_bytes) {
    telemetry::causal::record_hop(trace, telemetry::causal::hop_kind::enqueue,
                                  -1, payload_bytes);
    pending_traces_[static_cast<std::size_t>(next_hop)].push_back(
        {trace, telemetry::now_us(),
         static_cast<std::uint32_t>(payload_bytes)});
  }

  /// Relay an already-encoded record (forwards and broadcast fan-out): a
  /// relay sends the same (addr, is_bcast, payload) on, so the record's
  /// bytes are copied verbatim. The span points into the received packet
  /// or a sibling builder, never into buffers_[next_hop] itself.
  ///
  /// `defer_flush` lets callers holding a span into another coalescing
  /// buffer postpone the inline flush check until the span is dead.
  void enqueue(int next_hop, std::span<const std::byte> record,
               std::size_t payload_bytes,
               const telemetry::causal::wire_ctx* trace = nullptr,
               bool defer_flush = false) {
    world_->virtual_charge_events(1);
    std::size_t before = 0;
    packet_builder& buf = begin_record(next_hop, before);
    if (trace != nullptr) {
      append_trace_escape(buf, *trace);
      note_trace_pending(next_hop, *trace, payload_bytes);
    }
    buf.append(record);
    finish_record(next_hop, buf, before);
    // Forwarding during an exchange can overfill the buffers; flush inline
    // (without re-entering the poll loop).
    if (!defer_flush && in_exchange_.load(std::memory_order_relaxed) &&
        queued_bytes_ >= capacity_) flush();
  }

  void maybe_exchange() {
    if (queued_bytes_ >= capacity_ &&
        !in_exchange_.load(std::memory_order_relaxed)) {
      exchange_claim claim(in_exchange_, engine_mode_);
      if (!claim.entered()) return;  // outer frame owns the drain
      // A communication context (paper "exchange"): one span per entry,
      // with the trigger volume attached and the duration sampled into the
      // exchange-time histogram.
      telemetry::span sp("mailbox.exchange");
      sp.arg("queued_bytes", queued_bytes_);
      sp.sample_into(telemetry::fast_histogram::exchange_us);
      flush();
      drain_incoming();
      if (world_->timed()) sp.vtime_seconds(world_->virtual_now());
    }
  }

  // -------------------------------------------------------- flow control
  //
  // Credit-based per-destination backpressure (docs/BACKPRESSURE.md). Each
  // (this rank, next hop) link has a byte budget; flush_buffer charges every
  // outgoing packet against it and the receiver returns the bytes — as a
  // packet_credit_escape record piggybacked on reverse data traffic, or as
  // a standalone ack on credit_tag() when none flows — once it has drained
  // them. send()/send_bcast() stall *injection* (and only injection: transit
  // forwarding, flushes, and nested sends from receive callbacks are never
  // gated, which is what makes the protocol deadlock-free) while a link's
  // unacked + locally-queued bytes would exceed the budget.

  bool credit_on() const noexcept { return credit_budget_ != 0; }
  int credit_tag() const noexcept { return data_tag_ + 1; }

  /// Max unacked bytes across links (watchdog postmortem / stall reports).
  std::uint64_t credit_max_in_flight() const noexcept {
    if (!credit_on()) return 0;
    return *std::max_element(credit_used_.begin(), credit_used_.end());
  }

  /// Caller-side backpressure: before injecting a record toward `next_hop`,
  /// pump progress until the link fits it. The predicted cost deliberately
  /// overshoots (arrival stamp + trace escape + piggybacked ack headroom)
  /// so the budget is never exceeded for steady record sizes; a growing
  /// payload can overshoot by at most one record. The check inlines into
  /// every send; only the stall loop is out of line.
  void credit_gate(int next_hop, std::unique_lock<std::recursive_mutex>& lk) {
    if (!credit_on()) return;
    // Nested injection from a receive callback runs under the exchange
    // claim; gating it would stall the drain loop that has to free credit.
    if (in_exchange_.load(std::memory_order_relaxed)) return;
    const std::size_t next_cost =
        packet_record_size(next_hop, len_hint_) + sizeof(double) +
        trace_escape_bytes +
        packet_record_size(packet_credit_escape, sizeof(std::uint64_t));
    if (credit_over(next_hop, next_cost)) [[unlikely]] {
      credit_stall(next_hop, next_cost, lk);
    }
  }

  /// Whether a record costing `next_cost` would push the link to
  /// `next_hop` past its budget.
  bool credit_over(int next_hop, std::size_t next_cost) const noexcept {
    const std::size_t hop = static_cast<std::size_t>(next_hop);
    // Idle-link exception: with nothing buffered or unacked, one record
    // may always proceed, else a budget smaller than a single record
    // (tiny clamped budgets) could never admit anything — a livelock,
    // not backpressure. Peak then degrades to max(budget, one record).
    if (credit_used_[hop] == 0 && buffers_[hop].empty()) return false;
    return credit_used_[hop] + buffers_[hop].size() + next_cost >
           credit_budget_;
  }

  /// While stalled the rank keeps receiving, forwarding, and acking — a
  /// flooded peer that is itself stalled still returns our credit, so
  /// symmetric floods resolve.
  [[gnu::noinline]] void credit_stall(
      int next_hop, std::size_t next_cost,
      std::unique_lock<std::recursive_mutex>& lk) {
    const std::size_t hop = static_cast<std::size_t>(next_hop);
    ++stats_.credit_stalls;
    const double start_us = telemetry::now_us();
    do {
      drain_credit_acks();
      poll_incoming();
      flush_credit_acks(/*force=*/true);
      // If the whole deficit is our own unflushed buffer, ship it: nothing
      // else flushes while we stall, and the receiver can only ack bytes
      // that are on the wire. Used becomes nonzero, acks drain it to zero,
      // and the idle-link exception above then admits the send. Mirrors
      // flush()'s bookkeeping for the one link.
      if (credit_used_[hop] == 0 && !buffers_[hop].empty()) {
        ++stats_.credit_self_flushes;
        queued_bytes_ -= buffers_[hop].size();
        nonempty_.erase(
            std::find(nonempty_.begin(), nonempty_.end(), next_hop));
        flush_buffer(next_hop);
      }
      if (lk.owns_lock()) {
        // Engine mode: consume deferred deliveries and release mx_ across
        // the backoff so the engine can drain on our behalf.
        drain_deferred_locked();
        lk.unlock();
        std::this_thread::yield();
        lk.lock();
      } else {
        std::this_thread::yield();
      }
    } while (credit_over(next_hop, next_cost));
    telemetry::causal::record_credit_stall(next_hop, start_us,
                                           credit_used_[hop]);
  }

  /// Charge one flushed packet against its link (no-op with credit off).
  void credit_charge(int nh, std::size_t bytes) {
    if (!credit_on()) return;
    auto& used = credit_used_[static_cast<std::size_t>(nh)];
    used += bytes;
    if (used > credit_peak_) credit_peak_ = used;
    // Live flow-control gauge: per-link occupancy samples; the window max
    // tracks the most indebted link this sampling period.
    telemetry::live::gauge_set(telemetry::live::gauge::credit_used,
                               static_cast<double>(used));
  }

  /// A credit return from `from` arrived: that many of our bytes landed
  /// and were drained there. Clamped — a restarted accounting epoch or the
  /// receiver acking its (slightly larger) packet view must never wrap.
  void credit_consume_ack(int from, std::uint64_t amount) {
    auto& used = credit_used_[static_cast<std::size_t>(from)];
    used -= std::min(used, amount);
    telemetry::live::gauge_set(telemetry::live::gauge::credit_used,
                               static_cast<double>(used));
  }

  /// Receive standalone credit acks. Their dedicated tag keeps them
  /// drainable even while data packets back up, and lets a stalled sender
  /// collect credit without running full packet handling.
  void drain_credit_acks() {
    if (!credit_on()) return;
    auto& mpi = world_->mpi();
    while (auto st = mpi.iprobe(mpisim::any_source, credit_tag())) {
      auto ack = mpi.recv_bytes(st->source, credit_tag());
      std::uint64_t amount = 0;
      YGM_CHECK(ack.size() == sizeof(amount), "malformed credit ack");
      std::memcpy(&amount, ack.data(), sizeof(amount));
      credit_consume_ack(st->source, amount);
      buffer_pool::local().release(std::move(ack));
    }
  }

  /// Return owed bytes as standalone acks: every nonzero debt when `force`
  /// (stall loops and termination tests must not sit on credit a stalled
  /// peer needs), else only links past the eager-ack threshold — reverse
  /// data traffic usually piggybacks the return for free first.
  void flush_credit_acks(bool force) {
    if (!credit_on()) return;
    for (int r = 0; r < static_cast<int>(credit_owed_.size()); ++r) {
      auto& owed = credit_owed_[static_cast<std::size_t>(r)];
      if (owed == 0 || (!force && owed < credit_ack_threshold_)) continue;
      auto ack = buffer_pool::local().acquire(sizeof(std::uint64_t));
      ack.resize(sizeof(std::uint64_t));
      std::memcpy(ack.data(), &owed, sizeof(std::uint64_t));
      owed = 0;
      world_->mpi().send_bytes(r, credit_tag(), std::move(ack));
    }
  }

  void flush_buffer(int nh) {
    packet_builder& buf = buffers_[static_cast<std::size_t>(nh)];
    YGM_ASSERT(!buf.empty());
    auto& pend = pending_traces_[static_cast<std::size_t>(nh)];
    // The packet's bytes that are not message records: the arrival stamp,
    // one trace escape per sampled record, and the credit escape below.
    std::size_t control_bytes = (world_->timed() ? sizeof(double) : 0) +
                                pend.size() * trace_escape_bytes;
    // Piggyback this link's owed credit on the outgoing packet: one escape
    // record, zero extra messages. Appended before the stats below so the
    // byte counters match the wire.
    if (credit_on()) {
      auto& owed = credit_owed_[static_cast<std::size_t>(nh)];
      if (owed != 0) {
        std::array<std::byte, sizeof(std::uint64_t)> amount;
        std::memcpy(amount.data(), &owed, sizeof(std::uint64_t));
        const std::size_t at = buf.size();
        packet_append(buf.vec(), /*is_bcast=*/false, packet_credit_escape,
                      amount);
        buf.sync();
        control_bytes += buf.size() - at;
        owed = 0;
      }
    }
    const std::size_t bytes = buf.size();
    stats_.record_bytes += bytes - control_bytes;
    const bool remote = world_->topo().is_remote(rank_, nh);
    if (remote) {
      ++stats_.remote_packets;
      stats_.remote_bytes += bytes;
      telemetry::sample(telemetry::fast_histogram::remote_packet_bytes,
                        static_cast<double>(bytes));
    } else {
      ++stats_.local_packets;
      stats_.local_bytes += bytes;
      telemetry::sample(telemetry::fast_histogram::local_packet_bytes,
                        static_cast<double>(bytes));
    }
    stats_.hops_sent += record_counts_[static_cast<std::size_t>(nh)];
    record_counts_[static_cast<std::size_t>(nh)] = 0;
    if (!pend.empty()) {
      // One flush hop per sampled record: the span covers the record's
      // residency in this coalescing buffer, the byte arg is the size of
      // the wire packet it rode out in.
      const double flush_us = telemetry::now_us();
      for (const auto& p : pend) {
        telemetry::causal::record_hop(
            p.ctx, telemetry::causal::hop_kind::flush, p.enqueue_us, bytes);
        telemetry::live::note_latency(scheme_index(),
                                      telemetry::live::latency_kind::flush,
                                      flush_us - p.enqueue_us);
      }
      pend.clear();
    }
    // The builder is left without storage; the next record for this hop
    // re-acquires capacity from the pool (the receiver releases the
    // drained packet to its own pool, keeping the cycle allocation-free in
    // the steady state).
    std::vector<std::byte> packet = buf.take();
    if (world_->timed()) {
      // Charge the sender's virtual clock for the transfer and stamp the
      // packet with its arrival time at the receiver.
      const double arrival = world_->virtual_charge_packet(bytes, remote);
      std::memcpy(packet.data(), &arrival, sizeof(double));
    }
    credit_charge(nh, bytes);
    world_->mpi().send_bytes(nh, data_tag_, std::move(packet));
  }

  // Reentrant (or engine-raced) calls are no-ops: a receive callback that
  // drives progress itself (poll()/test_empty() — the external-work-queue
  // pattern) would otherwise re-enter the drain loop below once per queued
  // packet, recursing unboundedly; see exchange_claim for the engine half.
  // The outer drain picks up whatever arrives meanwhile.
  void poll_incoming() {
    exchange_claim claim(in_exchange_, engine_mode_);
    if (!claim.entered()) return;
    drain_incoming();
  }

  // The one drain loop, polling mode and engine alike; the caller must
  // already hold the exchange claim. Each packet is released — its pooled
  // buffer recycled, or the ring frame the transport lent freed — as soon
  // as handle_packet returns: handle_packet copies every span it keeps
  // (enqueue appends record bytes into coalescing buffers). With
  // `defer_batch` (the engine) deliveries go to the handoff batch, and one
  // pass stops once that holds a capacity's worth. Out of line: send()
  // inlines maybe_exchange(), and the loop would swell every send site.
  [[gnu::noinline]] bool drain_incoming(
      std::vector<std::byte>* defer_batch = nullptr) {
    drain_credit_acks();
    auto& mpi = world_->mpi();
    bool did = false;
    while (auto packet = mpi.take(data_tag_)) {
      handle_packet(*packet, defer_batch);
      did = true;
      if (defer_batch != nullptr && defer_batch->size() >= capacity_) break;
    }
    flush_credit_acks(/*force=*/false);
    return did;
  }

  // ------------------------------------------------------- progress engine
  //
  // Everything below runs with mx_ held (engine side: acquired by try-lock
  // in engine_advance; rank side: by the public entry points).

  /// Empty (disengaged) in polling mode, so the historical hot path pays
  /// one branch and no atomics; a real lock in engine mode. Recursive so
  /// receive callbacks that send()/poll() just re-enter.
  std::unique_lock<std::recursive_mutex> engine_lock() const {
    // [[unlikely]] keeps the polling-mode hot path straight-line: the
    // engine branch is moved out of the fall-through (send() runs this
    // per message at ~30 M msgs/s, where a taken branch is measurable).
    if (engine_mode_) [[unlikely]] {
      return std::unique_lock(mx_);
    }
    return std::unique_lock<std::recursive_mutex>();
  }

  bool test_empty_locked() {
    // An exception raised by a callback the engine executed on our behalf
    // surfaces on the rank thread at its next progress call.
    if (engine_error_) {
      std::exception_ptr e = std::exchange(engine_error_, nullptr);
      std::rethrow_exception(e);
    }
    if (engine_mode_) drain_deferred_locked();
    poll_incoming();
    flush();
    // Return all owed credit eagerly: a peer stalled in credit_gate cannot
    // reach its own wait_empty, and the detector must not owe its balance
    // to bytes we are sitting on.
    flush_credit_acks(/*force=*/true);
    // A receive callback's own test_empty() runs inside the drain that
    // invoked it: this rank is mid-delivery, so it is not quiescent, and a
    // detector poll here could consume the verdict the outer wait_empty()
    // is waiting for, leaving this rank one detection epoch ahead of its
    // peers (a hang once they have left).
    if (in_exchange_.load(std::memory_order_relaxed)) return false;
    if (quiescence_seen_) {
      // The engine consumed the detector's sticky verdict while we were
      // parked; honor it exactly once.
      quiescence_seen_ = false;
      return true;
    }
    return term_.poll(stats_.hops_sent, stats_.hops_received);
  }

  /// Engine thread: one advance pass. Never blocks on the rank — if the
  /// rank is anywhere inside the mailbox, back off and retry next pass.
  bool engine_advance(bool inline_deliveries) {
    std::unique_lock lk(mx_, std::try_to_lock);
    if (!lk.owns_lock()) return false;
    if (engine_error_) return false;  // rank must consume the failure first
    exchange_claim claim(in_exchange_);
    if (!claim.entered()) return false;

    bool did = false;
    try {
      did = engine_drain(inline_deliveries);
      if (queued_bytes_ >= capacity_) flush();
      // Termination rounds only for a parked rank with nothing pending in
      // the handoff ring: a computing rank may still produce (false
      // quiescence), and an undrained ring means counted-but-undelivered
      // messages. Once a verdict is latched, only the rank may start the
      // next detection epoch: a further poll here would consume the next
      // round's verdict too, leaving this rank one epoch ahead of its
      // peers and its next wait_empty() waiting on a round nobody joins.
      if (pump_->parked.load(std::memory_order_acquire) &&
          deferred_->empty() && !quiescence_seen_) {
        flush();
        if (term_.poll(stats_.hops_sent, stats_.hops_received)) {
          quiescence_seen_ = true;
          did = true;
        }
      }
    } catch (...) {
      // A callback executed on the engine (deliver::on_engine) threw, or a
      // transport error surfaced here: park it for the rank thread.
      engine_error_ = std::current_exception();
      did = true;
    }
    if (did) park_cv_.notify_all();
    return did;
  }

  /// Engine-side transport drain: forwards intermediary records in place,
  /// defers (or, under deliver::on_engine, executes) deliveries addressed
  /// to this rank. One ring batch per pass bounds handoff growth; a full
  /// ring is backpressure — the engine leaves messages in the mail slot
  /// until the rank catches up.
  bool engine_drain(bool inline_deliveries) {
    if (!inline_deliveries && deferred_->full()) return false;
    std::vector<std::byte> batch;
    const bool did = drain_incoming(inline_deliveries ? nullptr : &batch);
    if (batch.size() > sizeof(double)) {
      const double pushed_us = telemetry::now_us();
      std::memcpy(batch.data(), &pushed_us, sizeof(double));
      telemetry::count("progress.deferred_batches");
      // Single producer + the full() check above: this push cannot fail.
      const bool ok = deferred_->try_push(std::move(batch));
      YGM_ASSERT(ok);
      park_cv_.notify_all();
    }
    return did;
  }

  /// Rank thread: execute the delivery callbacks the engine handed off.
  /// Runs under the exchange claim, like the polling-mode drain, so a
  /// callback's own poll()/test_empty() cannot start a nested drain: the
  /// outer frame keeps popping batches.
  bool drain_deferred_locked() {
    exchange_claim claim(in_exchange_);
    if (!claim.entered()) return false;
    bool any = false;
    while (auto batch = deferred_->try_pop()) {
      double pushed_us = 0;
      YGM_ASSERT(batch->size() >= sizeof(double));
      std::memcpy(&pushed_us, batch->data(), sizeof(double));
      packet_reader reader(
          {batch->data() + sizeof(double), batch->size() - sizeof(double)});
      telemetry::causal::wire_ctx tctx;
      const telemetry::causal::wire_ctx* pending_trace = nullptr;
      while (!reader.done()) {
        const packet_record rec = reader.next();
        if (packet_record_is_trace(rec)) {
          // The engine already bumped the hop at transport-packet arrival;
          // the ring handoff is not a network leg.
          tctx = telemetry::causal::decode_wire(rec.payload);
          pending_trace = &tctx;
          continue;
        }
        if (pending_trace != nullptr) {
          // Span from ring push to delivery = engine-handoff residency.
          telemetry::causal::record_hop(*pending_trace,
                                        telemetry::causal::hop_kind::deliver,
                                        pushed_us, rec.payload.size());
          note_live_e2e(*pending_trace);
          pending_trace = nullptr;
        }
        deliver(rec.payload);
        any = true;
      }
      buffer_pool::local().release(std::move(*batch));
    }
    return any;
  }

  /// Engine side: append one delivery (payload + optional trace context)
  /// to the current handoff batch, in packet format behind an 8-byte
  /// push-timestamp slot.
  void defer_delivery(std::vector<std::byte>& batch,
                      std::span<const std::byte> payload,
                      const telemetry::causal::wire_ctx* trace) {
    if (batch.empty()) {
      batch = buffer_pool::local().acquire(
          std::min<std::size_t>(capacity_, 4096));
      batch.resize(sizeof(double));  // push-timestamp slot
    }
    // No hop event for the ring push: the ring is rank-internal, not a
    // network leg. Ring residency is still visible — the rank-side drain
    // records the deliver hop with a span starting at the batch's push
    // timestamp.
    if (trace != nullptr) append_trace_escape(batch, *trace);
    // Always recorded as a plain record addressed to this rank: broadcast
    // fan-out already happened on the engine, only the local delivery is
    // deferred.
    packet_append(batch, /*is_bcast=*/false, rank_, payload);
  }

  void handle_packet(const transport::packet& packet,
                     std::vector<std::byte>* defer_batch = nullptr) {
    // Flow control: every received byte is owed back to its sender once
    // this drain pass has consumed it (flush_credit_acks / the piggyback in
    // flush_buffer return the debt).
    if (credit_on()) {
      credit_owed_[static_cast<std::size_t>(packet.source())] +=
          packet.bytes().size();
    }
    // Owned packets keep the lean record loop; only a lent frame needs
    // the read-ahead and the address re-reads.
    if (packet.lent()) {
      handle_records</*Lent=*/true>(packet, defer_batch);
    } else {
      handle_records</*Lent=*/false>(packet, defer_batch);
    }
  }

  template <bool Lent>
  void handle_records(const transport::packet& packet,
                      std::vector<std::byte>* defer_batch) {
    const int from = packet.source();
    const std::size_t size = packet.bytes().size();
    // Records are tracked by offset. A lent frame's address is re-read
    // after every deliver and enqueue: a callback or an inline flush can
    // block in the transport, which first copies the frame out of the
    // ring (docs/TRANSPORT.md, "Receive-side contract"). An owned
    // packet's bytes never move.
    const std::byte* base = packet.bytes().data();
    std::size_t at = 0;
    if (world_->timed()) {
      // The receiver cannot see the packet before it arrives on the
      // modeled machine: advance this rank's clock to the arrival stamp.
      double arrival = 0;
      YGM_CHECK(size >= sizeof(double), "timed packet missing stamp");
      std::memcpy(&arrival, base, sizeof(double));
      world_->virtual_advance_to(arrival);
      at = sizeof(double);
    }
    // Trace annotation for the NEXT message record, if the sender sampled
    // it. Arrival completes a network leg, so the hop index bumps here.
    telemetry::causal::wire_ctx tctx;
    const telemetry::causal::wire_ctx* pending_trace = nullptr;
    std::size_t prefetched = at;
    while (at < size) {
      if constexpr (Lent) {
        // Keep a few KiB ahead of the parse in cache: a lent shm frame was
        // just written by another core, and fetching its lines while the
        // callbacks run beats stalling on them in each delivery copy.
        for (const std::size_t ahead = std::min(size, at + prefetch_bytes);
             prefetched < ahead; prefetched += 64) {
          __builtin_prefetch(base + prefetched);
        }
      }
      const std::size_t rec_at = at;
      const packet_record rec = packet_reader({base + at, size - at}).next();
      at += rec.encoded.size();
      if (packet_record_is_trace(rec)) {
        tctx = telemetry::causal::decode_wire(rec.payload);
        ++tctx.hop;
        pending_trace = &tctx;
        continue;  // metadata, not a message hop
      }
      if (packet_record_is_credit(rec)) {
        // Piggybacked credit return. Link-local: consumed here, never
        // forwarded, and not a message hop.
        std::uint64_t amount = 0;
        YGM_CHECK(rec.payload.size() == sizeof(amount),
                  "malformed credit record");
        std::memcpy(&amount, rec.payload.data(), sizeof(amount));
        credit_consume_ack(from, amount);
        continue;
      }
      ++stats_.hops_received;
      world_->virtual_charge_events(1);
      if (rec.is_bcast) {
        YGM_ASSERT(rec.addr != rank_);  // bcast trees never loop to the origin
        pending_trace = nullptr;  // broadcasts are never sampled
        if (defer_batch != nullptr) {
          defer_delivery(*defer_batch, rec.payload, nullptr);
        } else {
          deliver(rec.payload);
        }
        // Forward straight from the received packet — enqueue copies the
        // record into the coalescing buffers before any inline flush.
        for (const int nh : world_->bcast_next_hops(rec.addr)) {
          if constexpr (Lent) base = packet.bytes().data();
          ++stats_.forwards;
          enqueue(nh, {base + rec_at, rec.encoded.size()}, rec.payload.size());
        }
      } else if (rec.addr == rank_) {
        if (defer_batch != nullptr) {
          defer_delivery(*defer_batch, rec.payload, pending_trace);
          pending_trace = nullptr;
        } else {
          if (pending_trace != nullptr) {
            telemetry::causal::record_hop(
                *pending_trace, telemetry::causal::hop_kind::deliver, -1,
                rec.payload.size());
            note_live_e2e(*pending_trace);
            pending_trace = nullptr;
          }
          deliver(rec.payload);
        }
      } else {
        ++stats_.forwards;
        const int nh = world_->next_hop(rec.addr);
        if (pending_trace != nullptr) {
          telemetry::causal::record_hop(*pending_trace,
                                        telemetry::causal::hop_kind::forward,
                                        -1, rec.payload.size());
        }
        // Re-queue straight from the received packet's span (no copy
        // through a forward scratch buffer).
        enqueue(nh, rec.encoded, rec.payload.size(), pending_trace);
        pending_trace = nullptr;
      }
      if constexpr (Lent) base = packet.bytes().data();
    }
  }

  void deliver(std::span<const std::byte> payload) {
    if constexpr (ser::is_bitwise_v<Msg>) {
      // The payload is the message's object bytes, so the size check stands
      // in for the archive's truncation and trailing-byte checks, and one
      // copy into uninitialised storage writes each byte once: memcpy
      // implicitly creates the Msg there, std::launder names it.
      YGM_CHECK(payload.size() == sizeof(Msg),
                "message payload size does not match the message type");
      alignas(Msg) std::byte storage[sizeof(Msg)];
      std::size_t n = sizeof(Msg);
#if defined(__GNUC__)
      // Past one cache line, hide the size so the copy stays a call to the
      // library memcpy: GCC 12 expands a constant 1 KiB copy from the
      // packet's unaligned payload as `rep movsq`, which cost bulk_local a
      // median 20% of its message rate (docs/PERF.md, "Receive-side
      // copies"). Smaller records keep their inline copy.
      if constexpr (sizeof(Msg) > 64) asm("" : "+r"(n));
#endif
      std::memcpy(storage, payload.data(), n);
      ++stats_.deliveries;
      telemetry::add(telemetry::fast_counter::deliveries);
      on_recv_(*std::launder(reinterpret_cast<const Msg*>(storage)));
    } else {
      Msg m{};
      ser::iarchive ar(payload);
      ar & m;
      YGM_CHECK(ar.exhausted(), "message payload has trailing bytes");
      ++stats_.deliveries;
      telemetry::add(telemetry::fast_counter::deliveries);
      on_recv_(m);
    }
  }

  comm_world* world_;
  int rank_;  // cached: send() reads both per message
  int size_;
  recv_callback on_recv_;
  std::size_t capacity_;
  int data_tag_;
  termination_detector term_;

  std::vector<packet_builder> buffers_;  // keyed by next-hop rank
  std::vector<std::uint32_t> record_counts_;
  std::vector<int> nonempty_;
  std::size_t queued_bytes_ = 0;
  /// The exchange/drain claim (see exchange_claim.hpp). Atomic because
  /// poll()'s engine-mode early-out reads it without mx_; all writes happen
  /// through exchange_claim under the lock discipline.
  std::atomic<bool> in_exchange_{false};

  // ------------------------------------------------- progress-engine state
  //
  // In polling mode only station_/pump_ are live (facade registration);
  // mx_ is never locked, deferred_ is null, and the flags stay false.
  progress::station* station_ = nullptr;
  std::shared_ptr<progress::pump> pump_;
  bool engine_mode_ = false;
  /// Guards ALL mailbox state in engine mode (engine always try-locks).
  mutable std::recursive_mutex mx_;
  /// Signalled by the engine on progress so a parked wait_empty() wakes
  /// promptly; _any because the mutex is recursive.
  std::condition_variable_any park_cv_;
  /// Engine → rank handoff of deferred delivery batches (packet format
  /// behind an 8-byte push timestamp). Bounded: full = backpressure.
  std::unique_ptr<progress::mpsc_ring<std::vector<std::byte>>> deferred_;
  /// A quiescence verdict the engine consumed from the (sticky, one-shot)
  /// detector while the rank was parked; honored at the rank's next test.
  bool quiescence_seen_ = false;
  /// First exception thrown by a callback the engine executed; rethrown on
  /// the rank thread at its next progress call.
  std::exception_ptr engine_error_;

  // ------------------------------------------------------ flow-control state
  //
  // All guarded like the rest of the mailbox (mx_ in engine mode, the
  // single rank thread otherwise). Zero-cost when credit_budget_ == 0.
  std::size_t credit_budget_ = 0;        ///< per-link byte budget (0 = off)
  std::size_t credit_ack_threshold_ = 0; ///< eager standalone-ack watermark
  std::vector<std::uint64_t> credit_used_;  ///< unacked bytes, per next hop
  std::vector<std::uint64_t> credit_owed_;  ///< drained-not-acked, per source
  std::uint64_t credit_peak_ = 0;           ///< max credit_used_ ever seen

  // Length-slot width hint for in-place serialization: the previous
  // payload size, so fixed-size message streams patch the varint in place
  // without ever shifting payload bytes.
  std::size_t len_hint_ = 0;
  mailbox_stats stats_;

  // Causal tracing (telemetry/causal.hpp): sampled records awaiting their
  // flush hop, keyed by next-hop like buffers_. Unsampled runs never touch
  // any of this past the empty() checks.
  struct pending_trace {
    telemetry::causal::wire_ctx ctx;
    double enqueue_us = 0;
    std::uint32_t payload_bytes = 0;
  };
  std::vector<std::vector<pending_trace>> pending_traces_;
  std::vector<std::byte> trace_scratch_;  // encoded annotation payloads
  std::uint32_t trace_seq_ = 0;
};

}  // namespace ygm::core
