// Kernel replay: times single layers' public functions on a workload's
// own plan and data, outside any collective.
//
//   plan     IoPlan construction (time, heap held, piece count)
//   mdarray  PackRegion / UnpackRegion over the clients' StepsOfClient
//            pieces
//   codec    EncodeSubchunkFrame / DecodeSubchunkFrame over server 0's
//            sub-chunks (the workload's codec, shuffle+rle when it has
//            none)
//   util     Crc32c over the same sub-chunks
//   msg      Endpoint Send/Recv ping-pong at the median piece size
//
// Each kernel runs whole passes over its input until a time budget is
// spent and reports the median pass.
#pragma once

#include <cstdint>

#include "span_log.h"
#include "workload.h"

namespace perfbench {

struct KernelReport {
  double plan_build_ms = 0.0;
  double plan_heap_mb = 0.0;
  std::int64_t plan_pieces = 0;
  double pack_GiBps = 0.0;
  double unpack_GiBps = 0.0;
  double encode_MiBps = 0.0;
  double decode_MiBps = 0.0;
  double codec_ratio = 0.0;
  double crc32c_GiBps = 0.0;
  double sendrecv_us = 0.0;
  std::int64_t median_message_bytes = 0;
};

// `budget_s` is the time each kernel may take. `spans` (may be null)
// receives one span per timed pass.
KernelReport ReplayKernels(const WorkloadSpec& w, std::uint64_t seed,
                           double budget_s, SpanLog* spans);

// Median of `v` (v non-empty; sorts a copy).
double Median(std::vector<double> v);
// statistics.quantiles(v, n=4) (exclusive method): {q1, q2, q3}.
std::vector<double> Quartiles(std::vector<double> v);

}  // namespace perfbench
