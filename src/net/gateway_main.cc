/// \file gateway_main.cc
/// \brief The HTTP/JSON gateway daemon fronting a `confided` cluster.
///
/// See gateway.h for the endpoint surface and docs/OPERATIONS.md for the
/// launch recipe. SIGINT/SIGTERM stop the listener, dumping the metrics
/// registry when --metrics-out is set.

#include <csignal>
#include <cstdio>
#include <thread>

#include "common/metrics.h"
#include "net/config.h"
#include "net/gateway.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true); }

}  // namespace

int main(int argc, char** argv) {
  using namespace confide;

  auto cfg = net::GatewayConfig::FromArgs(argc, argv);
  if (!cfg.ok()) {
    std::fprintf(stderr, "confide_gateway: %s\n", cfg.status().ToString().c_str());
    return 2;
  }

  net::GatewayOptions options;
  options.nodes = cfg->nodes;
  options.listen_host = cfg->listen_host;
  options.listen_port = cfg->listen_port;
  net::Gateway gateway(options);
  if (Status st = gateway.Start(); !st.ok()) {
    std::fprintf(stderr, "confide_gateway: start: %s\n", st.ToString().c_str());
    return 1;
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  // Readiness line (parsed by tools/cluster_smoke.py).
  std::printf("confide_gateway: ready on port %u (%zu nodes)\n", gateway.port(),
              cfg->nodes.size());
  std::fflush(stdout);

  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  gateway.Stop();
  if (!cfg->metrics_out.empty()) {
    Status dumped = metrics::DumpSnapshot(cfg->metrics_out);
    if (!dumped.ok()) {
      std::fprintf(stderr, "confide_gateway: %s\n", dumped.message().c_str());
    }
  }
  return 0;
}
