/// \file drive.h
/// \brief The deployed run (drive.cc) and the traced in-process replay
/// (trace.cc): the two measurements one benchmark run can make.

#pragma once

#include <string>
#include <vector>

#include "report.h"
#include "txset.h"

namespace perfbench {

struct DriveArgs {
  std::string gateway;             ///< "http://127.0.0.1:PORT"
  std::vector<std::string> nodes;  ///< "host:port" by node id; node 0 leads
  std::vector<int> node_pids;      ///< by node id, for CPU and RSS
  int gateway_pid = 0;
};

/// \brief Drives `set` through a live cluster whose set-up already
/// committed `set.deploys`; adds the end-to-end metrics and the deployed
/// per-layer metrics to `report`.
void RunDrive(const TxSet& set, const WorkloadSpec& spec, const DriveArgs& args,
              Report* report);

/// \brief Replays `set` on an in-process 4-node cluster, timing each call
/// into a layer; adds the in-process per-layer metrics to `report`.
/// `workdir` holds the replay node's state directory.
void RunTrace(const TxSet& set, const std::string& workdir, Report* report);

}  // namespace perfbench
