/**
 * @file
 * The three workloads (a closed set; later changes cite these names).
 *
 *  - trace_churn: offline mode the way mercury_trace runs it, on a
 *    churning 1024-machine room. Core stepping is nearly all the time;
 *    no sockets, shared memory or WAL.
 *  - live_fleet: mercury_solverd as a child process under an open-loop
 *    load of utilization updates and UDP sensor reads. The request
 *    plane, codec, WAL, checkpoints and telemetry do the work; the
 *    mostly frozen fleet keeps core stepping small.
 *  - freon_emergency: the Section 5 Freon experiment (4 servers,
 *    diurnal load, Figure 11 emergencies) under Traditional, Freon and
 *    Freon-EC. The discrete-event layers dominate.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "common.hh"

namespace perfbench {

Outcome runTraceChurn(const Args &args, bool traced);
Outcome runLiveFleet(const Args &args, bool traced);
Outcome runFreonEmergency(const Args &args, bool traced);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
