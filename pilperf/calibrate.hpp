#pragma once
/// \file calibrate.hpp
/// Host-speed calibration for the end-to-end timings.
///
/// On a shared host, neighbours contend for the cores the benchmark runs
/// on, and the wall time of one and the same operation swings by 20-40%
/// within seconds and by 10-20% between whole runs. The slowdown is in
/// the cores' throughput, not in waiting: the thread's CPU time slows
/// alike. A fixed compute kernel -- a small dense matrix product and a
/// sort, cache-resident, owned by the benchmark and compiled with flags of
/// its own -- slows with it: over 20 s windows the log of its time
/// correlates at 0.96 with the log of the median ILP-II flow time, where
/// a latency-bound multiply chain or pointer chase reaches 0.56-0.72. So
/// the computing part of every end-to-end time is multiplied by the host
/// speed measured right next to it,
///
///   speed = kReferenceSeconds / (the kernel's wall time),
///
/// and reads as seconds on a host that runs the kernel in
/// kReferenceSeconds (Sample::scaled_s in workloads.hpp). The kernel runs
/// between operations, never inside a timed one. Nothing in the library
/// runs it, so a change to the library moves the scaled times as it moves
/// the wall times.

namespace pilperf {

/// The kernel's wall time on the reference host: the median over the A/A
/// runs recorded in README.md (4-vCPU KVM guest, Intel Xeon, shared host),
/// where its 10th and 90th percentiles were 1.8 and 2.6 ms.
inline constexpr double kReferenceSeconds = 2.3e-3;

/// Runs the kernel once; returns its wall time in seconds.
double calibration_seconds();

/// kReferenceSeconds / calibration_seconds(): multiply a compute time
/// measured just before by this to get it at the reference speed.
inline double host_speed() { return kReferenceSeconds / calibration_seconds(); }

}  // namespace pilperf
