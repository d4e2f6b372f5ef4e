// The benchmark's workloads and the closed loop that drives them.
//
// Every workload is a set of SPMD clients issuing collectives through
// the public ArrayGroup API against Panda servers on one Machine. A
// "pair" is one write collective followed by the read collective that
// reads the same data back; each client starts the next collective only
// after its previous one returned (closed loop). The first pair of a
// session is the cold one (rank launch, plan builds, first touch of the
// file image); the rest are steady-state samples. All clients enter each
// collective together through a host-only barrier.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "heap_counter.h"
#include "panda/panda.h"
#include "timing_fs.h"

namespace perfbench {

enum class LoopKind {
  kCheckpoint,  // Checkpoint, then Restart
  kWriteRead,   // Write, then Read
  kTimestep,    // Timestep (append), then ReadTimestep of that step
};

struct WorkloadSpec {
  const char* name = "";
  int clients = 0;
  int servers = 0;
  panda::Shape shape;   // float elements
  panda::Shape mesh;    // compute-node mesh, BLOCK in every dimension
  bool traditional = false;  // disk BLOCK,*,* over the servers (else natural)
  bool timing_only = false;  // payloads elided, nothing to verify
  LoopKind loop = LoopKind::kWriteRead;
  panda::CodecId codec = panda::CodecId::kNone;
  bool checksums = false;
  bool journal = false;
  bool sharded = false;      // shard_bytes from AdviseShardSize
  bool smooth = false;       // compressible fill instead of noise
  int episode = 0;           // kTimestep: steps before the stream restarts

  std::int64_t array_bytes() const { return shape.Volume() * 4; }
};

const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

// The workload's array as every client declares it (unbound).
panda::Array MakeArray(const WorkloadSpec& w);
// The options each server runs with (shard size depends on the plan).
panda::ServerOptions MakeServerOptions(const WorkloadSpec& w);
// The machine: simulated SP2 i/o nodes, data kept in memory unless
// timing-only.
panda::Machine MakeMachine(const WorkloadSpec& w);

// Writes the workload's values for `box` (row-major) into `out`. The
// values are a pure function of (seed, step, global coordinates).
void FillRegion(const WorkloadSpec& w, std::uint64_t seed, int step,
                const panda::Region& box, std::span<std::byte> out);
// Number of elements of `data` (row-major over `box`) that differ from
// FillRegion's values, compared bit for bit.
std::int64_t CountMismatches(const WorkloadSpec& w, std::uint64_t seed,
                             int step, const panda::Region& box,
                             std::span<const std::byte> data);

struct SessionConfig {
  // Pairs to run including the cold first one; 0 = bounded by time.
  int pairs = 0;
  // Time-bounded sessions: keep issuing pairs until this much wall time
  // has passed since the first pair finished ...
  double loop_seconds = 0.0;
  // ... and at least this many steady pairs ran.
  int min_steady_pairs = 1;
};

// Process-wide snapshot taken between collectives by the client that
// decides whether the loop continues. Only values that are safe to read
// while other ranks run (clocks and atomic counters); per-rank counters
// are read after Run() returns.
struct LoopSnapshot {
  std::int64_t wall_ns = 0;
  double cpu_s = 0.0;
  HeapSnapshot heap;
};

struct SessionResult {
  int pairs = 0;  // pairs completed, the cold one included
  // Per pair: host wall time of the collective with the benchmark's own
  // work (fill, clobber, verify) that overlapped it taken out.
  std::vector<double> write_wall_s;
  std::vector<double> read_wall_s;
  // Per pair: client 0's virtual elapsed time (what ArrayGroup returns).
  std::vector<double> write_virtual_s;
  std::vector<double> read_virtual_s;
  // End of the cold pair (latest client return), and the benchmark's own
  // work before it.
  std::int64_t first_pair_end_ns = 0;
  std::int64_t bench_ns_before_first_end = 0;
  // The benchmark's own work inside the steady loop (all clients).
  std::int64_t bench_ns_in_loop = 0;
  // Snapshots at the start and end of the steady loop.
  LoopSnapshot loop_begin;
  LoopSnapshot loop_end;
  // Fiber parks in the benchmark's own client barrier (see
  // ClientBarrier in workload.cc), to subtract from the scheduler's.
  std::int64_t barrier_parks = 0;
  std::int64_t attempted = 0;  // collectives issued (client 0's count)
  std::int64_t failed = 0;     // collectives that threw or read wrong data
  std::vector<std::string> errors;
};

// Runs one session (one Machine::Run) of `w` on `machine`. With
// `timing_fs` non-empty, server s uses timing_fs[s] as its file system.
// `spans` (may be null) receives one span per collective.
SessionResult RunSession(panda::Machine& machine, const WorkloadSpec& w,
                         std::uint64_t seed, const SessionConfig& config,
                         const std::vector<TimingFileSystem*>& timing_fs,
                         SpanLog* spans);

}  // namespace perfbench
