// yardstickd ingestion throughput: what the daemon boundary costs.
//
// Concurrent IngestClients stream batched mark events (batches of 1024)
// over a Unix socket at an in-process daemon, across the durability
// ladder: no journal, a journal without fsync, and the full
// durable-before-ack contract (fsync per batch). Each configuration gets a
// fresh daemon in a fresh directory; its streaming time is the harness's
// `bench.run` span from the first connect to the last close. Reports
// events/second, batches, Busy rejections and peak RSS per configuration.
//
// Knobs: YS_INGEST_EVENTS (per client, default 200000), YS_INGEST_CLIENTS
// (default 4). Gates: every configuration merges exactly the events the
// clients sent, and, when YS_INGEST_MIN_EPS is set, the fastest
// configuration streams at least that many events/second. Results go to
// stdout and BENCH_ingest.json.
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"

using namespace yardstick;

namespace {

constexpr size_t kBatch = 1024;

struct Config {
  const char* label;
  bool wal;
  bool fsync;
};

}  // namespace

int main() {
  const auto clients = static_cast<size_t>(std::max(1.0, bench::knob("YS_INGEST_CLIENTS", 4)));
  const auto events_per_client =
      static_cast<size_t>(std::max(1.0, bench::knob("YS_INGEST_EVENTS", 200000)));
  const size_t total = clients * events_per_client;
  bench::Envelope envelope("ingest");

  std::printf("# bench_ingest: %zu clients x %zu events, batch %zu (%zu total)\n", clients,
              events_per_client, kBatch, total);
  std::printf("%-22s %10s %14s %10s %8s %10s\n", "config", "time(s)", "events/s", "batches",
              "busy", "rss(MiB)");
  double best_eps = 0.0;
  for (const Config& cfg : {Config{"no-wal", false, false}, Config{"wal-nofsync", true, false},
                            Config{"wal-fsync (durable)", true, true}}) {
    const bench::ScratchDir dir;
    service::DaemonOptions options;
    options.socket_path = dir.path() + "/ys.sock";
    if (cfg.wal) options.wal_path = dir.path() + "/ys.wal";
    options.wal_fsync = cfg.fsync;
    options.snapshot_path = dir.path() + "/ys.trace";
    service::Daemon daemon(std::move(options));
    daemon.start();
    std::thread runner([&] { daemon.run(); });

    const bench::Run run = bench::measure([&] {
      std::vector<std::thread> workers;
      workers.reserve(clients);
      for (size_t c = 0; c < clients; ++c) {
        workers.emplace_back([&, c] {
          service::ClientOptions copts;
          copts.socket_path = dir.path() + "/ys.sock";
          copts.session_id = c + 1;
          copts.jitter_seed = (c + 1) * 0x9e3779b97f4a7c15ull;
          copts.batch_events = kBatch;
          // Distinct rule ids per client: every mark is a new event, so the
          // daemon-side count matches what the clients pushed.
          const auto base = static_cast<uint32_t>(c * events_per_client);
          service::IngestClient client(copts);
          for (size_t i = 0; i < events_per_client; ++i) {
            client.mark_rule(net::RuleId{base + static_cast<uint32_t>(i)});
          }
          client.close();
        });
      }
      for (std::thread& w : workers) w.join();
    });
    daemon.request_stop();
    runner.join();
    daemon.shutdown();
    const service::DaemonStats stats = daemon.stats();

    const double seconds = run.seconds({"bench.run"});
    const double eps = static_cast<double>(stats.events) / seconds;
    best_eps = std::max(best_eps, eps);
    std::printf("%-22s %10.6f %14.0f %10llu %8llu %10.1f\n", cfg.label, seconds, eps,
                static_cast<unsigned long long>(stats.batches),
                static_cast<unsigned long long>(stats.busy_rejections),
                static_cast<double>(run.peak_rss_kb) / 1024.0);
    envelope.config(cfg.label, run,
                    {{"events", static_cast<double>(stats.events)},
                     {"events_per_sec", eps},
                     {"batches", static_cast<double>(stats.batches)},
                     {"busy_rejections", static_cast<double>(stats.busy_rejections)}});
    envelope.gate(std::string(cfg.label) + ": events merged", static_cast<double>(stats.events),
                  static_cast<double>(total), stats.events == total);
  }
  const double min_eps = bench::knob("YS_INGEST_MIN_EPS", 0.0);
  if (min_eps > 0.0) {
    envelope.gate("best events/s", best_eps, min_eps, best_eps >= min_eps);
  }
  return envelope.write("BENCH_ingest.json");
}
