/// \file main.cc
/// \brief `perfbench_harness`: the compiled half of the benchmark (run.py
/// is the other half and the entry point).
///
///   perfbench_harness gen   --workload=W --seed=S --seconds=N --out=FILE
///       Generates, signs and seals the run's transactions; writes FILE
///       and FILE.deploy.json (the set-up deploy requests for run.py).
///   perfbench_harness drive --txs=FILE --gateway=URL --nodes=H:P,...
///                          --pids=P,... --gateway-pid=P
///       The deployed run against a live cluster (drive.cc).
///   perfbench_harness trace --txs=FILE --workdir=DIR
///       The traced in-process replay (trace.cc).
///
/// drive and trace print one JSON object as the last stdout line.

#include <cstdio>
#include <cstring>
#include <map>

#include "drive.h"
#include "net/config.h"

using namespace perfbench;

namespace {

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) continue;
    const char* eq = std::strchr(arg, '=');
    if (eq == nullptr) continue;
    flags[std::string(arg + 2, eq)] = eq + 1;
  }
  return flags;
}

int Usage() {
  std::fprintf(stderr, "usage: perfbench_harness gen|drive|trace --flag=value ...\n");
  return 2;
}

int Gen(std::map<std::string, std::string>& flags) {
  auto spec = FindWorkload(flags["workload"]);
  if (!spec.ok() || flags["out"].empty()) return Usage();
  const uint64_t seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  const uint64_t seconds = std::strtoull(flags["seconds"].c_str(), nullptr, 10);
  auto set = Generate(*spec, seed, seconds);
  if (!set.ok()) {
    std::fprintf(stderr, "gen: %s\n", set.status().ToString().c_str());
    return 1;
  }
  if (auto st = SaveTxSet(*set, flags["out"]); !st.ok()) {
    std::fprintf(stderr, "gen: %s\n", st.ToString().c_str());
    return 1;
  }
  std::string json = "{\"bodies\": [";
  for (size_t i = 0; i < set->deploys.size(); ++i) {
    json += (i ? ", " : "") + std::string("\"") +
            confide::HexEncode(confide::ByteView(set->deploys[i].wire)) + "\"";
  }
  json += "], \"hashes\": [";
  for (size_t i = 0; i < set->deploys.size(); ++i) {
    json += (i ? ", \"" : "\"") +
            confide::HexEncode(confide::ByteView(set->deploys[i].hash.data(), 32)) + "\"";
  }
  json += "]}\n";
  const std::string deploy_path = flags["out"] + ".deploy.json";
  std::FILE* file = std::fopen(deploy_path.c_str(), "wb");
  if (file == nullptr || std::fputs(json.c_str(), file) < 0 || std::fclose(file) != 0) {
    std::fprintf(stderr, "gen: cannot write %s\n", deploy_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "gen: %s seed %llu: %zu txs, %zu reads\n", spec->name.c_str(),
               (unsigned long long)seed, set->txs.size(), set->reads_at_ns.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  auto flags = ParseFlags(argc, argv);
  if (command == "gen") return Gen(flags);
  if (command != "drive" && command != "trace") return Usage();

  auto set = LoadTxSet(flags["txs"]);
  if (!set.ok()) {
    std::fprintf(stderr, "%s: %s\n", command.c_str(), set.status().ToString().c_str());
    return 1;
  }
  auto spec = FindWorkload(set->workload);
  if (!spec.ok()) return Usage();

  Report report;
  if (command == "drive") {
    DriveArgs args;
    args.gateway = flags["gateway"];
    args.nodes = confide::net::SplitCommaList(flags["nodes"]);
    for (const std::string& pid : confide::net::SplitCommaList(flags["pids"])) {
      args.node_pids.push_back(std::atoi(pid.c_str()));
    }
    args.gateway_pid = std::atoi(flags["gateway-pid"].c_str());
    if (args.nodes.empty() || args.nodes.size() != args.node_pids.size()) return Usage();
    RunDrive(*set, *spec, args, &report);
  } else {
    RunTrace(*set, flags["workdir"], &report);
  }
  report.Print();
  return report.correct() ? 0 : 1;
}
