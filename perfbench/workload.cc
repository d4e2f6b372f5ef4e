#include "workload.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <mutex>
#include <optional>
#include <utility>

#include "sched/sched.h"
#include "sched/wait.h"

namespace perfbench {

using panda::Array;
using panda::ArrayGroup;
using panda::ArrayLayout;
using panda::CodecId;
using panda::Endpoint;
using panda::Index;
using panda::Machine;
using panda::PandaClient;
using panda::Region;
using panda::ServerOptions;
using panda::Shape;

namespace {

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> all;

  WorkloadSpec ckpt;
  ckpt.name = "ckpt_natural";
  ckpt.clients = 8;
  ckpt.servers = 4;
  ckpt.shape = Shape{256, 512, 512};  // 256 MiB of floats
  ckpt.mesh = Shape{2, 2, 2};
  ckpt.loop = LoopKind::kCheckpoint;
  ckpt.checksums = true;
  ckpt.journal = true;
  all.push_back(ckpt);

  WorkloadSpec reorg = ckpt;
  reorg.name = "reorg_traditional";
  reorg.traditional = true;
  reorg.loop = LoopKind::kWriteRead;
  reorg.checksums = false;
  reorg.journal = false;
  all.push_back(reorg);

  WorkloadSpec ts;
  ts.name = "timestep_codec";
  ts.clients = 8;
  ts.servers = 4;
  ts.shape = Shape{64, 256, 256};  // 16 MiB of floats
  ts.mesh = Shape{2, 2, 2};
  ts.loop = LoopKind::kTimestep;
  ts.codec = CodecId::kShuffleRle;
  ts.sharded = true;
  ts.smooth = true;
  ts.episode = 8;
  all.push_back(ts);

  WorkloadSpec scale;
  scale.name = "scale_1024";
  scale.clients = 896;
  scale.servers = 128;
  scale.shape = Shape{896, 512, 512};  // one 1 MiB plane per client
  scale.mesh = Shape{896, 1, 1};
  scale.timing_only = true;
  scale.loop = LoopKind::kWriteRead;
  all.push_back(scale);
  return all;
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> all = MakeWorkloads();
  return all;
}

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Computes one row of values: `n` elements starting at global index `g`
// along the last dimension.
void FillRow(const WorkloadSpec& w, std::uint64_t seed, int step,
             const Index& g, std::int64_t n, float* out) {
  const int r = g.rank();
  if (w.smooth) {
    // A smooth field: a per-step offset plus a staircase over the
    // coordinate sum, so neighbours repeat and the high byte planes
    // change slowly (as on regular scientific fields). The seed sets the
    // lowest byte plane to one nonzero constant: every seed then yields
    // the same byte-run structure, so shuffle+rle compresses every seed's
    // data to the same size and the virtual times do not depend on it.
    const double base = 3.0 * step;
    const std::uint32_t low = 1 + static_cast<std::uint32_t>(seed % 255);
    std::int64_t sum = 0;
    for (int d = 0; d + 1 < r; ++d) sum += g[d];
    for (std::int64_t t = 0; t < n; ++t) {
      const auto v =
          static_cast<float>(base + 0.25 * ((sum + g[r - 1] + t) >> 3));
      std::uint32_t bits = 0;
      std::memcpy(&bits, &v, 4);
      bits = (bits & ~0xffu) | low;
      std::memcpy(&out[t], &bits, 4);
    }
    return;
  }
  // Noise: 24-bit integers (exact in float) from a hash of the global
  // row-major offset, so the data does not compress.
  std::int64_t linear = 0;
  for (int d = 0; d < r; ++d) linear = linear * w.shape[d] + g[d];
  const std::uint64_t key =
      Mix(seed) ^ (static_cast<std::uint64_t>(step) << 56);
  for (std::int64_t t = 0; t < n; ++t) {
    const std::uint64_t h =
        Mix(key ^ static_cast<std::uint64_t>(linear + t));
    out[t] = static_cast<float>(h >> 40);
  }
}

// Calls fn(global row start, row length, element offset in the buffer)
// for every innermost row of `box`.
template <typename Fn>
void ForEachRow(const Region& box, Fn&& fn) {
  if (box.empty()) return;
  const int r = box.rank();
  const Shape ext = box.extent();
  Shape outer = ext;
  outer[r - 1] = 1;
  Index off = Index::Zeros(r);
  std::int64_t n = 0;
  do {
    Index g = box.lo();
    for (int d = 0; d < r; ++d) g[d] += off[d];
    fn(g, ext[r - 1], n);
    n += ext[r - 1];
  } while (panda::NextIndexRowMajor(outer, off));
}

// A host-only barrier across the clients: no messages, no virtual
// time. Every collective starts with all clients released together, so
// each collective's wall window holds that collective's work only (the
// benchmark's own fill/clobber/verify happens between windows). Fibers
// park on a sched::WaitCV, so one carrier thread serves every client.
class ClientBarrier {
 public:
  explicit ClientBarrier(int parties) : parties_(parties) {}

  // Returns false once Abort() was called.
  bool Arrive() {
    std::unique_lock<std::mutex> lock(mu_);
    if (aborted_) return false;
    const std::int64_t generation = generation_;
    if (++arrived_ == parties_) {
      arrived_ = 0;
      ++generation_;
      cv_.NotifyAll();
      return true;
    }
    while (generation_ == generation && !aborted_) {
      if (panda::sched::OnFiber()) {
        ++parks_;
        cv_.ParkFiber(lock, std::nullopt);
      } else {
        cv_.Wait(lock);
      }
    }
    return !aborted_;
  }

  void Abort() {
    std::lock_guard<std::mutex> lock(mu_);
    aborted_ = true;
    cv_.NotifyAll();
  }

  std::int64_t parks() {
    std::lock_guard<std::mutex> lock(mu_);
    return parks_;
  }

 private:
  const int parties_;
  std::mutex mu_;
  panda::sched::WaitCV cv_;  // notified under mu_
  int arrived_ = 0;                 // guarded by mu_
  std::int64_t generation_ = 0;     // guarded by mu_
  std::int64_t parks_ = 0;          // guarded by mu_
  bool aborted_ = false;            // guarded by mu_
};

// Host nanoseconds of `intervals` (sorted, disjoint) inside [a, b).
std::int64_t Covered(const std::vector<std::pair<std::int64_t, std::int64_t>>&
                         intervals,
                     std::int64_t a, std::int64_t b) {
  std::int64_t total = 0;
  for (const auto& [s, e] : intervals) {
    if (s >= b) break;
    const std::int64_t lo = std::max(s, a);
    const std::int64_t hi = std::min(e, b);
    if (hi > lo) total += hi - lo;
  }
  return total;
}

std::vector<std::pair<std::int64_t, std::int64_t>> Union(
    std::vector<std::pair<std::int64_t, std::int64_t>> v) {
  std::sort(v.begin(), v.end());
  std::vector<std::pair<std::int64_t, std::int64_t>> out;
  for (const auto& iv : v) {
    if (!out.empty() && iv.first <= out.back().second) {
      out.back().second = std::max(out.back().second, iv.second);
    } else {
      out.push_back(iv);
    }
  }
  return out;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& w : Workloads()) names.emplace_back(w.name);
  return names;
}

Array MakeArray(const WorkloadSpec& w) {
  const ArrayLayout memory("memory layout", w.mesh);
  const std::vector<panda::Distribution> blocks(
      static_cast<size_t>(w.shape.rank()), panda::BLOCK);
  Array array = [&] {
    if (!w.traditional) {
      return Array("field", w.shape, 4, memory, blocks, memory, blocks);
    }
    const ArrayLayout disk("disk layout", Shape{w.servers});
    std::vector<panda::Distribution> disk_dist(
        static_cast<size_t>(w.shape.rank()), panda::NONE);
    disk_dist[0] = panda::BLOCK;
    return Array("field", w.shape, 4, memory, blocks, disk, disk_dist);
  }();
  array.set_codec(w.codec);
  return array;
}

ServerOptions MakeServerOptions(const WorkloadSpec& w) {
  ServerOptions options;
  options.disk_checksums = w.checksums;
  options.journal = w.journal;
  if (w.sharded) {
    const panda::Sp2Params params = panda::Sp2Params::Nas();
    const panda::IoPlan plan(MakeArray(w).meta(), w.servers,
                             params.subchunk_bytes);
    options.shard_bytes = panda::AdviseShardSize(
        panda::store::StoreBackend::kPosix, plan.SegmentBytes(0),
        params.subchunk_bytes);
  }
  return options;
}

Machine MakeMachine(const WorkloadSpec& w) {
  return Machine::Simulated(w.clients, w.servers, panda::Sp2Params::Nas(),
                            /*store_data=*/!w.timing_only, w.timing_only);
}

void FillRegion(const WorkloadSpec& w, std::uint64_t seed, int step,
                const Region& box, std::span<std::byte> out) {
  std::vector<float> row;
  ForEachRow(box, [&](const Index& g, std::int64_t n, std::int64_t at) {
    row.resize(static_cast<size_t>(n));
    FillRow(w, seed, step, g, n, row.data());
    std::memcpy(out.data() + at * 4, row.data(), static_cast<size_t>(n) * 4);
  });
}

std::int64_t CountMismatches(const WorkloadSpec& w, std::uint64_t seed,
                             int step, const Region& box,
                             std::span<const std::byte> data) {
  std::vector<float> row;
  std::int64_t bad = 0;
  ForEachRow(box, [&](const Index& g, std::int64_t n, std::int64_t at) {
    row.resize(static_cast<size_t>(n));
    FillRow(w, seed, step, g, n, row.data());
    const std::byte* got = data.data() + at * 4;
    if (std::memcmp(got, row.data(), static_cast<size_t>(n) * 4) == 0) return;
    for (std::int64_t t = 0; t < n; ++t) {
      if (std::memcmp(got + t * 4, &row[static_cast<size_t>(t)], 4) != 0) {
        ++bad;
      }
    }
  });
  return bad;
}

SessionResult RunSession(Machine& machine, const WorkloadSpec& w,
                         std::uint64_t seed, const SessionConfig& config,
                         const std::vector<TimingFileSystem*>& timing_fs,
                         SpanLog* spans) {
  constexpr int kMaxPairs = 1 << 16;
  const int max_pairs = config.pairs > 0 ? config.pairs : kMaxPairs;
  const panda::World world{w.clients, w.servers};
  const panda::Sp2Params params = machine.params();
  const ServerOptions server_options = MakeServerOptions(w);
  const bool data = !w.timing_only;
  const std::string group_name = std::string("g_") + w.name;
  const std::string schema_file =
      w.loop == LoopKind::kTimestep ? group_name + ".schema" : "";

  // Each client appends only to its own log; the logs are read after
  // Run() returns.
  struct ClientLog {
    std::vector<std::int64_t> write_start, write_end, read_start, read_end;
    std::vector<std::pair<std::int64_t, std::int64_t>> bench;
    std::vector<char> bad;
    bool threw = false;
  };
  std::vector<ClientLog> logs(static_cast<size_t>(w.clients));
  std::vector<double> write_virtual, read_virtual;  // client 0 only
  std::int64_t attempted = 0;                        // client 0 only

  // decision[p]: 0 undecided, 1 run pair p, 2 stop. The first client to
  // reach pair p decides for all, so every client issues the same
  // number of collectives.
  std::vector<std::atomic<int>> decision(static_cast<size_t>(max_pairs) + 1);
  std::atomic<std::int64_t> loop_start_ns{0};
  std::atomic<bool> aborted{false};
  std::mutex errors_mu;
  std::vector<std::string> errors;  // guarded by errors_mu
  SessionResult result;

  ClientBarrier barrier(w.clients);
  auto record_error = [&](const std::string& what) {
    aborted.store(true);
    barrier.Abort();
    std::lock_guard<std::mutex> lock(errors_mu);
    errors.push_back(what);
  };
  auto snapshot = [&](LoopSnapshot& s) {
    s.wall_ns = NowNs();
    s.cpu_s = ProcessCpuSeconds();
    s.heap = Heap();
  };
  auto run_pair = [&](int p) -> bool {
    if (p == 0) return true;
    std::atomic<int>& d = decision[static_cast<size_t>(p)];
    int verdict = d.load();
    if (verdict != 0) return verdict == 1;
    bool go;
    if (aborted.load() || p >= max_pairs) {
      go = false;
    } else if (config.pairs > 0 || p == 1) {
      go = true;
    } else {
      const double elapsed =
          static_cast<double>(NowNs() - loop_start_ns.load()) / 1e9;
      go = p - 1 < config.min_steady_pairs || elapsed < config.loop_seconds;
    }
    int expected = 0;
    if (!d.compare_exchange_strong(expected, go ? 1 : 2)) {
      return expected == 1;
    }
    if (p == 1) {
      loop_start_ns.store(NowNs());
      snapshot(result.loop_begin);
    }
    if (!go) snapshot(result.loop_end);
    return go;
  };

  machine.Run(
      [&](Endpoint& ep, int c) {
        ClientLog& log = logs[static_cast<size_t>(c)];
        auto bench = [&](auto&& fn) {
          const std::int64_t s = NowNs();
          fn();
          log.bench.emplace_back(s, NowNs());
        };
        Array array = MakeArray(w);
        array.BindClient(c, /*allocate=*/data);
        const Region box = array.local_region();
        PandaClient client(ep, world, params);
        std::optional<ArrayGroup> group;
        auto new_group = [&] {
          group.emplace(group_name, schema_file);
          group->Include(&array);
        };
        new_group();
        if (data && w.loop != LoopKind::kTimestep) {
          bench([&] { FillRegion(w, seed, 0, box, array.local_data()); });
        }
        SpanLog* span_log = c == 0 ? spans : nullptr;
        for (int p = 0; run_pair(p); ++p) {
          int step = 0;
          if (w.loop == LoopKind::kTimestep) {
            step = p % w.episode;
            if (p > 0 && step == 0) new_group();
            if (data) {
              bench([&] { FillRegion(w, seed, step, box, array.local_data()); });
            }
          }
          try {
            if (span_log != nullptr) span_log->set_request(2 * p);
            if (!barrier.Arrive()) break;
            if (c == 0) ++attempted;
            log.write_start.push_back(NowNs());
            double vw = 0.0;
            {
              ScopedSpan span(span_log, "panda.write_collective", 0);
              switch (w.loop) {
                case LoopKind::kCheckpoint: vw = group->Checkpoint(client); break;
                case LoopKind::kWriteRead: vw = group->Write(client); break;
                case LoopKind::kTimestep: vw = group->Timestep(client); break;
              }
            }
            log.write_end.push_back(NowNs());
            if (data) {
              bench([&] {
                std::memset(array.local_data().data(), 0xff,
                            array.local_data().size());
              });
            }
            if (span_log != nullptr) span_log->set_request(2 * p + 1);
            if (!barrier.Arrive()) break;
            if (c == 0) ++attempted;
            log.read_start.push_back(NowNs());
            double vr = 0.0;
            {
              ScopedSpan span(span_log, "panda.read_collective", 0);
              switch (w.loop) {
                case LoopKind::kCheckpoint: vr = group->Restart(client); break;
                case LoopKind::kWriteRead: vr = group->Read(client); break;
                case LoopKind::kTimestep:
                  vr = group->ReadTimestep(client, step);
                  break;
              }
            }
            log.read_end.push_back(NowNs());
            if (c == 0) {
              write_virtual.push_back(vw);
              read_virtual.push_back(vr);
            }
            if (data) {
              std::int64_t bad = 0;
              bench([&] {
                bad = CountMismatches(w, seed, step, box, array.local_data());
              });
              log.bad.push_back(bad != 0);
              if (bad != 0) {
                record_error("client " + std::to_string(c) + " pair " +
                             std::to_string(p) + ": " + std::to_string(bad) +
                             " elements read back wrong");
              }
            }
          } catch (const std::exception& e) {
            log.threw = true;
            record_error("client " + std::to_string(c) + ": " + e.what());
            break;
          }
        }
        if (c == 0) {
          try {
            client.Shutdown();
          } catch (const std::exception& e) {
            record_error(std::string("shutdown: ") + e.what());
          }
        }
      },
      [&](Endpoint& ep, int s) {
        panda::FileSystem& fs =
            timing_fs.empty() ? machine.server_fs(s)
                              : *timing_fs[static_cast<size_t>(s)];
        try {
          panda::ServerMain(ep, fs, world, params, server_options);
        } catch (const std::exception& e) {
          record_error("server " + std::to_string(s) + ": " + e.what());
        }
      });

  int pairs = std::numeric_limits<int>::max();
  std::vector<std::pair<std::int64_t, std::int64_t>> bench;
  bool threw = false;
  for (const ClientLog& log : logs) {
    pairs = std::min(pairs, static_cast<int>(log.read_end.size()));
    bench.insert(bench.end(), log.bench.begin(), log.bench.end());
    threw = threw || log.threw;
  }
  bench = Union(std::move(bench));
  result.pairs = pairs;
  for (int p = 0; p < pairs; ++p) {
    std::int64_t ws = std::numeric_limits<std::int64_t>::max(), we = 0;
    std::int64_t rs = std::numeric_limits<std::int64_t>::max(), re = 0;
    bool bad = false;
    for (const ClientLog& log : logs) {
      const auto i = static_cast<size_t>(p);
      ws = std::min(ws, log.write_start[i]);
      we = std::max(we, log.write_end[i]);
      rs = std::min(rs, log.read_start[i]);
      re = std::max(re, log.read_end[i]);
      bad = bad || (i < log.bad.size() && log.bad[i] != 0);
    }
    result.write_wall_s.push_back(
        static_cast<double>(we - ws - Covered(bench, ws, we)) / 1e9);
    result.read_wall_s.push_back(
        static_cast<double>(re - rs - Covered(bench, rs, re)) / 1e9);
    if (p == 0) {
      result.first_pair_end_ns = re;
      result.bench_ns_before_first_end =
          Covered(bench, std::numeric_limits<std::int64_t>::min(), re);
    }
    if (bad) ++result.failed;
  }
  if (threw) ++result.failed;
  if (result.loop_end.wall_ns > 0 && result.loop_begin.wall_ns > 0) {
    result.bench_ns_in_loop =
        Covered(bench, result.loop_begin.wall_ns, result.loop_end.wall_ns);
  }
  result.write_virtual_s = std::move(write_virtual);
  result.read_virtual_s = std::move(read_virtual);
  result.attempted = attempted;
  result.barrier_parks = barrier.parks();
  result.errors = std::move(errors);
  if (!result.errors.empty() && result.failed == 0) result.failed = 1;
  return result;
}

}  // namespace perfbench
