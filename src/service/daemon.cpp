#include "service/daemon.hpp"

#include <atomic>
#include <cerrno>
#include <cstring>
#include <future>
#include <mutex>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/fault.hpp"
#include "common/status.hpp"
#include "netio/frame.hpp"
#include "obs/metrics.hpp"
#include "service/io.hpp"
#include "service/queue.hpp"
#include "service/wal.hpp"
#include "yardstick/persist.hpp"

namespace yardstick::service {

namespace {

using netio::DecodeStatus;
using netio::Frame;
using netio::FrameType;

/// One queued batch. The connection thread parks on `done` until the
/// consumer has journaled and merged the payload — acknowledgements are
/// sent only for durable batches.
struct QueuedBatch {
  uint64_t session = 0;
  uint64_t seq = 0;
  std::string payload;  // binary trace delta
  std::promise<bool> done;
};

/// A connection slot. The handler thread uses the fd but never closes
/// it; the accept loop (or shutdown) joins finished threads and lets the
/// Fd destructor close — so ::shutdown() during drain can never race a
/// reused descriptor number.
struct ConnSlot {
  Fd fd;
  std::thread thread;
  std::atomic<bool> finished{false};
};

bool send_frame(int fd, FrameType type, uint64_t seq, std::string_view body = {}) {
  const std::string wire = netio::encode_frame(type, seq, body);
  return io_write_full(fd, wire.data(), wire.size(), "net.write");
}

using Sessions = std::map<uint64_t, coverage::CoverageTrace>;

/// Start-up recovery, the daemon's and `ingest-replay`'s: the snapshot (if
/// present) into session 0, then every journal record into its session.
/// A corrupt snapshot throws CorruptTraceError: silently dropping
/// acknowledged coverage would be worse than refusing to come up. Returns
/// the recovery half of the stats.
DaemonStats recover_sessions(const std::string& snapshot_path, const std::string& wal_path,
                             bdd::BddManager& mgr, Sessions& sessions) {
  DaemonStats s;
  if (!snapshot_path.empty() && ::access(snapshot_path.c_str(), F_OK) == 0) {
    sessions[0].merge(ys::load_trace(snapshot_path, mgr));
    s.recovered_snapshot = true;
  }
  if (!wal_path.empty()) {
    const Wal::ReplayStats rs = Wal::replay(wal_path, [&](std::string_view rec) {
      if (rec.size() < 8) return;  // malformed but checksum-valid: skip
      const uint64_t session = netio::get_u64(rec.data());
      try {
        sessions[session].merge(netio::decode_trace_delta(rec.substr(8), mgr));
      } catch (const ys::CorruptTraceError&) {
        // Validated before journaling, so this means version skew or
        // on-disk damage the checksum missed; skip the record rather
        // than refuse every restart.
        ++s.rejected_batches;
      }
    });
    s.recovered_records = rs.records;
    s.recovered_torn_tail = rs.torn_tail || rs.bad_tail;
  }
  s.sessions = sessions.size();
  return s;
}

/// Every session's trace, merged in session-id order (deterministic).
coverage::CoverageTrace merge_sessions(const Sessions& sessions) {
  coverage::CoverageTrace out;
  for (const auto& [id, trace] : sessions) out.merge(trace);
  return out;
}

}  // namespace

struct Daemon::Impl {
  explicit Impl(DaemonOptions o)
      : opts(std::move(o)),
        mgr(opts.num_vars),
        wal({.path = opts.wal_path, .fsync = opts.wal_fsync}),
        queue(opts.queue_capacity),
        m_frames(obs::metrics().counter("ys.ingest.frames",
                                        "frames received by yardstickd")),
        m_events(obs::metrics().counter("ys.ingest.events",
                                        "mark events merged into session traces")),
        m_busy(obs::metrics().counter("ys.ingest.busy_rejections",
                                      "batches answered with backpressure")),
        m_corrupt(obs::metrics().counter("ys.ingest.corrupt_frames",
                                         "frames rejected as torn or corrupt")),
        m_rejected(obs::metrics().counter("ys.ingest.rejected_batches",
                                          "batches rejected (decode/journal failure)")),
        m_retransmits(obs::metrics().counter("ys.ingest.duplicate_free_merges",
                                             "batches merged (unions, so re-delivery "
                                             "is counted but never double-applied)")),
        g_queue_depth(obs::metrics().gauge("ys.ingest.queue_depth",
                                           "ingress queue occupancy")),
        g_wal_bytes(obs::metrics().gauge("ys.ingest.wal_bytes",
                                         "write-ahead journal size")),
        g_sessions(obs::metrics().gauge("ys.ingest.sessions",
                                        "distinct sessions merged")) {}

  DaemonOptions opts;
  bdd::BddManager mgr;
  // Per-session traces; merged deterministically in key order. Session 0
  // holds what recovery loaded from a snapshot.
  Sessions sessions;
  Wal wal;
  BoundedQueue<QueuedBatch> queue;

  Fd unix_listener;
  Fd tcp_listener;
  Fd stop_rd, stop_wr;
  std::thread consumer;
  std::vector<std::unique_ptr<ConnSlot>> conns;  // accept-loop/shutdown only
  std::atomic<bool> stop_requested{false};
  std::atomic<bool> halt{false};  // crash_stop: drop instead of drain
  bool started = false;
  bool threads_joined = false;

  // Counters (atomics: touched by connection threads and the consumer).
  std::atomic<uint64_t> connections{0}, accept_failures{0}, frames{0},
      corrupt_frames{0}, batches{0}, rejected_batches{0}, busy_rejections{0},
      events{0}, compactions{0};
  uint64_t recovered_records = 0;
  bool recovered_torn_tail = false;
  bool recovered_snapshot = false;

  obs::Counter& m_frames;
  obs::Counter& m_events;
  obs::Counter& m_busy;
  obs::Counter& m_corrupt;
  obs::Counter& m_rejected;
  obs::Counter& m_retransmits;
  obs::Gauge& g_queue_depth;
  obs::Gauge& g_wal_bytes;
  obs::Gauge& g_sessions;

  void recover();
  void consume();
  bool process(QueuedBatch& batch);
  void maybe_compact();
  void save_snapshot();
  void handle_conn(int fd);
  bool dispatch(int fd, const Frame& frame, uint64_t& session, bool& greeted);
  void accept_from(int listener);
  void reap_finished();
  void stop_threads(bool drain);
  [[nodiscard]] coverage::CoverageTrace merged() const;
};

void Daemon::Impl::recover() {
  const DaemonStats r = recover_sessions(opts.snapshot_path, opts.wal_path, mgr, sessions);
  recovered_snapshot = r.recovered_snapshot;
  recovered_records = r.recovered_records;
  recovered_torn_tail = r.recovered_torn_tail;
  rejected_batches.fetch_add(r.rejected_batches, std::memory_order_relaxed);
  if (!opts.wal_path.empty()) {
    wal.open_for_append();
    // Fold the replayed journal into a fresh snapshot right away: a
    // crash loop must not grow the WAL without bound.
    if (r.recovered_records > 0 && !opts.snapshot_path.empty()) {
      save_snapshot();
      wal.reset();
      compactions.fetch_add(1, std::memory_order_relaxed);
    }
    g_wal_bytes.set(static_cast<double>(wal.bytes()));
  }
  g_sessions.set(static_cast<double>(sessions.size()));
}

coverage::CoverageTrace Daemon::Impl::merged() const { return merge_sessions(sessions); }

void Daemon::Impl::save_snapshot() {
  const coverage::CoverageTrace all = merged();
  ys::save_trace(opts.snapshot_path, all, mgr);
}

void Daemon::Impl::maybe_compact() {
  if (opts.wal_path.empty() || opts.snapshot_path.empty()) return;
  if (wal.bytes() < opts.compact_wal_bytes) return;
  save_snapshot();  // atomic: crash between the two steps just replays a
  wal.reset();      // stale journal onto the snapshot — a no-op union
  compactions.fetch_add(1, std::memory_order_relaxed);
  g_wal_bytes.set(static_cast<double>(wal.bytes()));
}

bool Daemon::Impl::process(QueuedBatch& batch) {
  // Validate + rebuild first: garbage must never reach the journal.
  coverage::CoverageTrace delta;
  try {
    delta = netio::decode_trace_delta(batch.payload, mgr);
  } catch (const ys::CorruptTraceError&) {
    rejected_batches.fetch_add(1, std::memory_order_relaxed);
    m_rejected.add();
    return false;
  }
  if (!opts.wal_path.empty()) {
    std::string record;
    record.reserve(8 + batch.payload.size());
    netio::put_u64(record, batch.session);
    record.append(batch.payload);
    try {
      wal.append(record);
    } catch (const ys::IoError&) {
      // Not durable, so not acknowledged; the client retries and the
      // eventual successful merge is a union — no double counting.
      rejected_batches.fetch_add(1, std::memory_order_relaxed);
      m_rejected.add();
      return false;
    }
    g_wal_bytes.set(static_cast<double>(wal.bytes()));
  }
  const uint64_t n = delta.marked_rules().size() +
                     delta.marked_packets().location_count();
  auto [it, inserted] = sessions.try_emplace(batch.session);
  it->second.merge(delta);
  if (inserted) g_sessions.set(static_cast<double>(sessions.size()));
  events.fetch_add(n, std::memory_order_relaxed);
  m_events.add(n);
  m_retransmits.add();
  return true;
}

void Daemon::Impl::consume() {
  while (auto item = queue.pop()) {
    g_queue_depth.set(static_cast<double>(queue.depth()));
    if (halt.load(std::memory_order_relaxed)) {
      // Crash simulation: the batch dies unprocessed; its promise breaks
      // and the connection reports an error, as a real crash would.
      continue;
    }
    if (fault::active()) fault::fire("daemon.consume.delay");
    bool ok = false;
    try {
      ok = process(*item);
      batches.fetch_add(1, std::memory_order_relaxed);
    } catch (...) {
      item->done.set_value(false);
      throw;
    }
    item->done.set_value(ok);
    maybe_compact();
  }
}

bool Daemon::Impl::dispatch(int fd, const Frame& frame, uint64_t& session,
                            bool& greeted) {
  switch (frame.type) {
    case FrameType::Hello: {
      if (frame.body.size() < 12) {
        send_frame(fd, FrameType::Error, frame.seq, "malformed hello");
        return false;
      }
      const uint64_t sid = netio::get_u64(frame.body.data());
      const uint32_t vars = netio::get_u32(frame.body.data() + 8);
      if (vars != opts.num_vars) {
        send_frame(fd, FrameType::Error, frame.seq,
                   "variable universe mismatch: daemon has " +
                       std::to_string(opts.num_vars));
        return false;
      }
      session = sid;
      greeted = true;
      std::string body;
      netio::put_u64(body, sid);
      return send_frame(fd, FrameType::HelloAck, frame.seq, body);
    }
    case FrameType::Batch: {
      if (!greeted) {
        send_frame(fd, FrameType::Error, frame.seq, "batch before hello");
        return false;
      }
      QueuedBatch item;
      item.session = session;
      item.seq = frame.seq;
      item.payload = frame.body;
      std::future<bool> done = item.done.get_future();
      if (!queue.try_push(std::move(item))) {
        // Explicit backpressure: the memory bound holds, the client owns
        // the retry (safe: merge is a union).
        busy_rejections.fetch_add(1, std::memory_order_relaxed);
        m_busy.add();
        std::string body;
        netio::put_u32(body, opts.busy_retry_ms);
        return send_frame(fd, FrameType::Busy, frame.seq, body);
      }
      g_queue_depth.set(static_cast<double>(queue.depth()));
      bool ok = false;
      try {
        ok = done.get();
      } catch (const std::future_error&) {
        ok = false;  // consumer halted (crash path) before reaching it
      }
      if (ok) return send_frame(fd, FrameType::Ack, frame.seq);
      send_frame(fd, FrameType::Error, frame.seq, "batch rejected");
      return false;
    }
    case FrameType::Bye:
      send_frame(fd, FrameType::ByeAck, frame.seq);
      return false;
    default:
      send_frame(fd, FrameType::Error, frame.seq, "unexpected frame type");
      return false;
  }
}

void Daemon::Impl::handle_conn(int fd) {
  uint64_t session = 0;
  bool greeted = false;
  std::string buffer;
  std::vector<char> chunk(64 * 1024);
  for (;;) {
    // Drain every complete frame already buffered before reading again.
    while (true) {
      const netio::DecodeResult r = netio::decode_frame(buffer);
      if (r.status == DecodeStatus::NeedMore) break;
      if (r.status == DecodeStatus::Corrupt) {
        // Torn or tampered stream: refuse loudly and drop the
        // connection; the client reconnects and resends (idempotent).
        corrupt_frames.fetch_add(1, std::memory_order_relaxed);
        m_corrupt.add();
        send_frame(fd, FrameType::Error, 0, r.error);
        return;
      }
      buffer.erase(0, r.consumed);
      frames.fetch_add(1, std::memory_order_relaxed);
      m_frames.add();
      if (!dispatch(fd, r.frame, session, greeted)) return;
    }
    const ssize_t n = io_read(fd, chunk.data(), chunk.size(), "net.read");
    if (n <= 0) return;  // EOF, reset, or shutdown() during drain
    buffer.append(chunk.data(), static_cast<size_t>(n));
  }
}

void Daemon::Impl::reap_finished() {
  for (auto it = conns.begin(); it != conns.end();) {
    if ((*it)->finished.load(std::memory_order_acquire)) {
      (*it)->thread.join();
      it = conns.erase(it);  // Fd closes here, after the join
    } else {
      ++it;
    }
  }
}

void Daemon::Impl::accept_from(int listener) {
  Fd conn = accept_conn(listener);
  if (!conn.valid()) {
    // One refused accept (EMFILE, injected fault, transient kernel
    // error) must not kill the daemon; count it and keep serving.
    accept_failures.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  connections.fetch_add(1, std::memory_order_relaxed);
  auto slot = std::make_unique<ConnSlot>();
  slot->fd = std::move(conn);
  ConnSlot* raw = slot.get();
  slot->thread = std::thread([this, raw] {
    handle_conn(raw->fd.get());
    raw->finished.store(true, std::memory_order_release);
  });
  conns.push_back(std::move(slot));
}

void Daemon::Impl::stop_threads(bool drain) {
  unix_listener.reset();
  tcp_listener.reset();
  if (!drain) {
    halt.store(true, std::memory_order_relaxed);
    queue.clear();   // undrained batches die; their promises break
    queue.close();
  }
  // Wake connection threads blocked in read(); they finish their
  // in-flight frame (whose batch the consumer will still drain) and exit.
  for (auto& slot : conns) {
    if (slot->fd.valid()) ::shutdown(slot->fd.get(), SHUT_RDWR);
  }
  for (auto& slot : conns) {
    if (slot->thread.joinable()) slot->thread.join();
  }
  conns.clear();
  if (drain) queue.close();  // consumer drains the rest, then exits
  if (consumer.joinable()) consumer.join();
  threads_joined = true;
}

Daemon::Daemon(DaemonOptions opts) : impl_(std::make_unique<Impl>(std::move(opts))) {}

Daemon::~Daemon() {
  if (impl_->started && !impl_->threads_joined) crash_stop();
}

void Daemon::start() {
  Impl& d = *impl_;
  if (d.opts.socket_path.empty() && d.opts.tcp_port == 0) {
    throw ys::InvalidInputError("daemon needs a unix socket path or a tcp port");
  }
  d.recover();
  if (!d.opts.socket_path.empty()) d.unix_listener = listen_unix(d.opts.socket_path);
  if (d.opts.tcp_port != 0) d.tcp_listener = listen_tcp(d.opts.tcp_port);
  int fds[2];
  if (::pipe(fds) != 0) throw ys::IoError("cannot create daemon stop pipe");
  d.stop_rd = Fd(fds[0]);
  d.stop_wr = Fd(fds[1]);
  d.consumer = std::thread([&d] { d.consume(); });
  d.started = true;
}

void Daemon::run(int wake_fd) {
  Impl& d = *impl_;
  while (!d.stop_requested.load(std::memory_order_relaxed)) {
    struct pollfd pfds[4];
    nfds_t n = 0;
    pfds[n++] = {d.stop_rd.get(), POLLIN, 0};
    if (wake_fd >= 0) pfds[n++] = {wake_fd, POLLIN, 0};
    const nfds_t first_listener = n;
    if (d.unix_listener.valid()) pfds[n++] = {d.unix_listener.get(), POLLIN, 0};
    if (d.tcp_listener.valid()) pfds[n++] = {d.tcp_listener.get(), POLLIN, 0};
    // A finite timeout doubles as the reap tick for finished connections.
    const int rc = ::poll(pfds, n, 500);
    if (rc < 0) {
      if (errno == EINTR) continue;  // a signal: loop re-checks the wake fds
      break;
    }
    if (pfds[0].revents != 0) break;
    if (wake_fd >= 0 && pfds[1].revents != 0) break;
    for (nfds_t i = first_listener; i < n; ++i) {
      if ((pfds[i].revents & POLLIN) != 0) d.accept_from(pfds[i].fd);
    }
    d.reap_finished();
  }
}

void Daemon::request_stop() {
  Impl& d = *impl_;
  d.stop_requested.store(true, std::memory_order_relaxed);
  if (d.stop_wr.valid()) {
    const char byte = 'q';
    [[maybe_unused]] const ssize_t n = ::write(d.stop_wr.get(), &byte, 1);
  }
}

void Daemon::shutdown() {
  Impl& d = *impl_;
  if (!d.started || d.threads_joined) return;
  request_stop();
  d.stop_threads(/*drain=*/true);
  // Everything accepted has now reached the session traces: persist the
  // final state atomically and retire the journal it supersedes.
  if (!d.opts.snapshot_path.empty()) {
    d.save_snapshot();
    if (!d.opts.wal_path.empty()) d.wal.reset();
  }
}

void Daemon::crash_stop() {
  Impl& d = *impl_;
  if (!d.started || d.threads_joined) return;
  request_stop();
  d.stop_threads(/*drain=*/false);
}

coverage::CoverageTrace Daemon::merged_trace(bdd::BddManager& into) const {
  return impl_->merged().imported_into(into);
}

std::string Daemon::serialized_trace() const {
  const coverage::CoverageTrace all = impl_->merged();
  return ys::serialize_trace(all, impl_->mgr);
}

DaemonStats Daemon::stats() const {
  const Impl& d = *impl_;
  DaemonStats s;
  s.connections = d.connections.load(std::memory_order_relaxed);
  s.accept_failures = d.accept_failures.load(std::memory_order_relaxed);
  s.frames = d.frames.load(std::memory_order_relaxed);
  s.corrupt_frames = d.corrupt_frames.load(std::memory_order_relaxed);
  s.batches = d.batches.load(std::memory_order_relaxed);
  s.rejected_batches = d.rejected_batches.load(std::memory_order_relaxed);
  s.busy_rejections = d.busy_rejections.load(std::memory_order_relaxed);
  s.events = d.events.load(std::memory_order_relaxed);
  s.compactions = d.compactions.load(std::memory_order_relaxed);
  s.wal_bytes = d.opts.wal_path.empty() ? 0 : d.wal.bytes();
  s.sessions = d.sessions.size();
  s.recovered_records = d.recovered_records;
  s.recovered_torn_tail = d.recovered_torn_tail;
  s.recovered_snapshot = d.recovered_snapshot;
  return s;
}

uint16_t Daemon::tcp_port() const {
  const Impl& d = *impl_;
  if (!d.tcp_listener.valid()) return 0;
  struct sockaddr_in addr = {};
  socklen_t len = sizeof(addr);
  if (::getsockname(d.tcp_listener.get(), reinterpret_cast<struct sockaddr*>(&addr),
                    &len) != 0) {
    return 0;
  }
  return ntohs(addr.sin_port);
}

coverage::CoverageTrace recover_trace(const std::string& snapshot_path,
                                      const std::string& wal_path,
                                      bdd::BddManager& mgr, DaemonStats* stats) {
  Sessions sessions;
  const DaemonStats s = recover_sessions(snapshot_path, wal_path, mgr, sessions);
  if (stats != nullptr) *stats = s;
  return merge_sessions(sessions);
}

}  // namespace yardstick::service
