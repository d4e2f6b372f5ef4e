// panda_perfbench: the host-cost benchmark program (see README.md).
//
//   panda_perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//                   [--trace_out=FILE.json]
//
// One process runs one workload. Every rank runs on the fiber backend
// with a single carrier thread. The last line of stdout is a JSON
// object: end-to-end metrics with --trace=0, per-layer metrics with
// --trace=1, plus the correctness tally and the virtual (SP2-model)
// times that run.py compares across runs.
//
// Wall-clock reads are this program's purpose.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "kernels.h"
#include "util/options.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kGiB = 1024.0 * kMiB;
// Machines set up per measured run; setup_s is their median. Cheap
// workloads set up more machines, until kSetupBudgetS is spent.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 9;
constexpr double kSetupBudgetS = 2.0;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  double virtual_write_s = 0.0;
  double virtual_read_s = 0.0;

  void Add(const SessionResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
  }
  void Fail(const std::string& why) {
    ++failed;
    errors.push_back(why);
  }
};

std::unique_ptr<panda::Machine> NewMachine(const WorkloadSpec& w,
                                           int carriers) {
  auto machine = std::make_unique<panda::Machine>(MakeMachine(w));
  machine->SetSchedBackend(panda::sched::Backend::kFiber, carriers);
  return machine;
}

int UsableCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

template <typename T>
std::vector<T> Steady(const std::vector<T>& v) {
  return v.size() > 1 ? std::vector<T>(v.begin() + 1, v.end()) : v;
}

// Pair p's virtual times must equal those of the first steady pair that
// did the same thing: pair 1, or for timestep streams the first pair at
// the same position in the stream.
int ReferencePair(const WorkloadSpec& w, int p) {
  if (w.loop != LoopKind::kTimestep) return 1;
  const int pos = p % w.episode;
  return pos == 0 ? w.episode : pos;
}

bool SameVirtual(double a, double b, bool exact) {
  return exact ? a == b : std::fabs(a - b) <= 1e-9 * std::fabs(b);
}

// Counts steady pairs of `r` whose virtual times differ from their
// reference pair in `ref`. Sessions that start from reset clocks must
// agree bit for bit (`exact`); pairs later in one session see larger
// absolute clock values, so their elapsed times may differ in the last
// bits of rounding only.
void CheckVirtual(const WorkloadSpec& w, const SessionResult& ref,
                  const SessionResult& r, bool exact, const char* what,
                  Outcome& out) {
  for (int p = 1; p < r.pairs; ++p) {
    const int q = exact ? p : ReferencePair(w, p);
    if (q >= ref.pairs) continue;
    const auto i = static_cast<size_t>(p);
    const auto j = static_cast<size_t>(q);
    if (!SameVirtual(r.write_virtual_s[i], ref.write_virtual_s[j], exact) ||
        !SameVirtual(r.read_virtual_s[i], ref.read_virtual_s[j], exact)) {
      char buf[200];
      std::snprintf(buf, sizeof(buf),
                    "%s: pair %d virtual times %.17g/%.17g differ from "
                    "%.17g/%.17g",
                    what, p, r.write_virtual_s[i], r.read_virtual_s[i],
                    ref.write_virtual_s[j], ref.read_virtual_s[j]);
      out.Fail(buf);
    }
  }
}

void DescribeSamples(const char* what, const std::vector<double>& v) {
  const std::vector<double> q = Quartiles(v);
  std::fprintf(stderr, "  %-6s n=%zu  q1=%.4f median=%.4f q3=%.4f s", what,
               v.size(), q[0], q[1], q[2]);
  // A tail percentile needs at least ten samples beyond it.
  if (v.size() >= 100) {
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    std::fprintf(stderr, "  p90=%.4f s", sorted[sorted.size() * 9 / 10]);
  }
  std::fprintf(stderr, "\n");
}

// --trace=0: the end-to-end metrics.
Outcome RunMeasured(const WorkloadSpec& w, std::uint64_t seed,
                    double seconds) {
  Outcome out;
  std::vector<double> setup_s;
  SessionResult steady;
  std::vector<double> cold_write_virtual, cold_read_virtual;
  double setup_total_s = 0.0;
  for (int i = 0; i < kMaxSetups; ++i) {
    const bool last = i + 1 == kMaxSetups ||
                      (i + 1 >= kMinSetups && setup_total_s >= kSetupBudgetS);
    const std::int64_t t0 = NowNs();
    std::unique_ptr<panda::Machine> machine = NewMachine(w, 1);
    SessionConfig config;
    config.pairs = last ? 0 : 1;
    config.loop_seconds = seconds;
    config.min_steady_pairs = 3;
    SessionResult r = RunSession(*machine, w, seed, config, {}, nullptr);
    out.Add(r);
    if (r.pairs < 1) break;
    setup_s.push_back(static_cast<double>(r.first_pair_end_ns - t0 -
                                          r.bench_ns_before_first_end) /
                      1e9);
    setup_total_s += static_cast<double>(NowNs() - t0) / 1e9;
    cold_write_virtual.push_back(r.write_virtual_s[0]);
    cold_read_virtual.push_back(r.read_virtual_s[0]);
    if (w.timing_only) {
      // No payload to verify: the servers must still have stored exactly
      // one array image per write collective.
      std::int64_t written = 0;
      for (int s = 0; s < w.servers; ++s) {
        written += machine->server_fs(s).stats().bytes_written;
      }
      if (written != w.array_bytes() * r.pairs) {
        out.Fail("servers wrote " + std::to_string(written) +
                 " bytes, expected " +
                 std::to_string(w.array_bytes() * r.pairs));
      }
    }
    if (last) {
      steady = std::move(r);
      break;
    }
  }
  for (size_t i = 1; i < cold_write_virtual.size(); ++i) {
    if (cold_write_virtual[i] != cold_write_virtual[0] ||
        cold_read_virtual[i] != cold_read_virtual[0]) {
      out.Fail("cold-pair virtual times differ between fresh machines");
    }
  }
  if (steady.pairs < 2) {
    out.Fail("no steady-state pair completed");
    return out;
  }
  CheckVirtual(w, steady, steady, /*exact=*/false, "steady loop", out);

  const std::vector<double> writes = Steady(steady.write_wall_s);
  const std::vector<double> reads = Steady(steady.read_wall_s);
  const double mib = static_cast<double>(w.array_bytes()) / kMiB;
  std::fprintf(stderr, "%s seed=%" PRIu64 ": %zu steady pairs, setups:",
               w.name, seed, writes.size());
  for (const double s : setup_s) std::fprintf(stderr, " %.3f", s);
  std::fprintf(stderr, " s\n");
  DescribeSamples("write", writes);
  DescribeSamples("read", reads);

  out.metrics = {
      {"write_MiBps", mib / Median(writes), "MiB/s"},
      {"read_MiBps", mib / Median(reads), "MiB/s"},
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  out.virtual_write_s = steady.write_virtual_s[1];
  out.virtual_read_s = steady.read_virtual_s[1];
  return out;
}

double PerColl(std::int64_t count, std::int64_t collectives) {
  return static_cast<double>(count) / static_cast<double>(collectives);
}

// --trace=1: the per-layer metrics.
Outcome RunTraced(const WorkloadSpec& w, std::uint64_t seed, double seconds,
                  const std::string& trace_out) {
  Outcome out;
  SpanLog spans(1 << 18);
  const std::int64_t origin = NowNs();
  KernelReport k;
  try {
    k = ReplayKernels(w, seed, std::min(0.3, seconds / 40.0), &spans);
  } catch (const std::exception& e) {
    out.Fail(std::string("kernel replay: ") + e.what());
  }

  // One carrier, one machine, four sessions:
  //   a   cold pair on a fresh machine;
  //   b   untraced steady loop (host.* metrics, the one-carrier baseline);
  //   a2  one pair on the now-populated files, servers decorated;
  //   c   b's pair count again, decorated and with spans.
  // Per-rank counters (messages, file ops, scheduler) are only read
  // between Run() calls. c minus a2 leaves c's steady pairs: both start
  // from the same file state with cold plan caches.
  std::unique_ptr<panda::Machine> machine = NewMachine(w, 1);
  SessionConfig cold;
  cold.pairs = 1;
  const SessionResult a = RunSession(*machine, w, seed, cold, {}, nullptr);
  out.Add(a);

  machine->ResetClocksAndStats();
  ResetHeapPeak();
  SessionConfig loop;
  loop.loop_seconds = seconds / 3.0;
  loop.min_steady_pairs = 2;
  const SessionResult b = RunSession(*machine, w, seed, loop, {}, nullptr);
  const double heap_peak_mb = static_cast<double>(Heap().peak_bytes) / kMiB;
  const panda::sched::Stats after_b = machine->sched_stats();
  out.Add(b);

  std::vector<std::unique_ptr<TimingFileSystem>> decorated;
  std::vector<TimingFileSystem*> timing_fs;
  for (int s = 0; s < w.servers; ++s) {
    decorated.push_back(std::make_unique<TimingFileSystem>(
        machine->server_fs(s), &spans, machine->server_rank(s)));
    timing_fs.push_back(decorated.back().get());
  }
  auto fs_total = [&] {
    FsTally sum;
    for (const TimingFileSystem* fs : timing_fs) sum += fs->tally();
    return sum;
  };
  machine->ResetClocksAndStats();
  const SessionResult a2 =
      RunSession(*machine, w, seed, cold, timing_fs, &spans);
  const panda::sched::Stats after_a2 = machine->sched_stats();
  const panda::MsgStats msg_a2 = machine->transport().TotalStats();
  const FsTally fs_a2 = fs_total();
  out.Add(a2);

  machine->ResetClocksAndStats();
  SessionConfig traced;
  traced.pairs = b.pairs;
  const SessionResult c =
      RunSession(*machine, w, seed, traced, timing_fs, &spans);
  const panda::sched::Stats after_c = machine->sched_stats();
  const panda::MsgStats msg_c = machine->transport().TotalStats();
  const FsTally fs = (fs_total() - fs_a2) - fs_a2;
  std::int64_t shard_files = 0;
  for (const TimingFileSystem* t : timing_fs) shard_files += t->shard_files();
  out.Add(c);
  decorated.clear();
  timing_fs.clear();
  machine.reset();
  if (b.pairs < 2 || c.pairs != b.pairs || a2.pairs != 1) {
    out.Fail("traced run: sessions did not complete");
    return out;
  }
  CheckVirtual(w, b, b, /*exact=*/false, "untraced loop", out);
  CheckVirtual(w, b, c, /*exact=*/true, "traced loop", out);
  if (a2.write_virtual_s[0] != c.write_virtual_s[0] ||
      a2.read_virtual_s[0] != c.read_virtual_s[0]) {
    out.Fail("traced run: first-pair virtual times differ from a2");
  }

  // The parallel probe: a cold session and a steady loop on one carrier
  // per core this process may run on (what `nproc` prints). The virtual
  // clocks must not notice the carrier count.
  const int cores = UsableCores();
  std::unique_ptr<panda::Machine> wide = NewMachine(w, cores);
  const SessionResult wide_cold =
      RunSession(*wide, w, seed, cold, {}, nullptr);
  out.Add(wide_cold);
  wide->ResetClocksAndStats();
  const SessionResult p = RunSession(*wide, w, seed, loop, {}, nullptr);
  out.Add(p);
  wide.reset();
  if (wide_cold.pairs == 1 &&
      (wide_cold.write_virtual_s[0] != a.write_virtual_s[0] ||
       wide_cold.read_virtual_s[0] != a.read_virtual_s[0])) {
    out.Fail("parallel probe: cold-pair virtual times differ");
  }
  if (p.pairs >= 2) {
    CheckVirtual(w, b, p, /*exact=*/true, "parallel probe", out);
  } else {
    out.Fail("parallel probe: no steady pair completed");
  }

  const std::int64_t colls = 2 * static_cast<std::int64_t>(b.pairs - 1);
  const std::vector<double> b_writes = Steady(b.write_wall_s);
  const std::vector<double> b_reads = Steady(b.read_wall_s);
  const double one_carrier = Median(b_writes) + Median(b_reads);
  const double traced_pair =
      Median(Steady(c.write_wall_s)) + Median(Steady(c.read_wall_s));
  std::vector<double> speedup;
  for (int i = 1; i < p.pairs; ++i) {
    const auto j = static_cast<size_t>(i);
    speedup.push_back(one_carrier / (p.write_wall_s[j] + p.read_wall_s[j]));
  }
  const std::vector<double> sq =
      speedup.empty() ? std::vector<double>{0, 0, 0} : Quartiles(speedup);

  const FsOpCounts io = fs.Total();
  const double gib_moved =
      static_cast<double>(w.array_bytes()) * static_cast<double>(colls) / kGiB;
  const double cpu_s = b.loop_end.cpu_s - b.loop_begin.cpu_s -
                       static_cast<double>(b.bench_ns_in_loop) / 1e9;
  // Scheduler counters accumulate per Run(), launch and shutdown
  // included: subtracting the cold one-pair session leaves the steady
  // pairs. Parks in the benchmark's own barrier (each one also a context
  // switch) are taken out as well.
  auto sched_per_coll = [&](std::int64_t panda::sched::Stats::*field,
                            bool minus_barrier) {
    const std::int64_t cold_run = after_a2.*field - after_b.*field -
                                  (minus_barrier ? a2.barrier_parks : 0);
    const std::int64_t traced_run = after_c.*field - after_a2.*field -
                                    (minus_barrier ? c.barrier_parks : 0);
    return PerColl(traced_run - cold_run, colls);
  };

  std::fprintf(stderr, "%s seed=%" PRIu64 " traced: %d steady pairs per loop, "
               "%d in the %d-carrier probe, %lld spans (%lld dropped)\n",
               w.name, seed, b.pairs - 1, p.pairs - 1, cores,
               static_cast<long long>(spans.size()),
               static_cast<long long>(spans.dropped()));
  std::fprintf(stderr, "  file ops per collective by kind "
               "(opens/reads/writes/syncs/renames/removes, MiB written):\n");
  for (int kind = 0; kind < kNumFileKinds; ++kind) {
    const FsOpCounts& f = fs.by_kind[static_cast<size_t>(kind)];
    std::fprintf(stderr, "    %-6s %.2f/%.2f/%.2f/%.2f/%.2f/%.2f  %.3f\n",
                 FileKindName(static_cast<FileKind>(kind)),
                 PerColl(f.opens, colls), PerColl(f.reads, colls),
                 PerColl(f.writes, colls), PerColl(f.syncs, colls),
                 PerColl(f.renames, colls), PerColl(f.removes, colls),
                 PerColl(f.bytes_written, colls) / kMiB);
  }

  out.metrics = {
      {"plan.build_ms", k.plan_build_ms, "ms"},
      {"plan.heap_mb", k.plan_heap_mb, "MB"},
      {"plan.pieces", static_cast<double>(k.plan_pieces), "count"},
      {"mdarray.pack_GiBps", k.pack_GiBps, "GiB/s"},
      {"mdarray.unpack_GiBps", k.unpack_GiBps, "GiB/s"},
      {"codec.encode_MiBps", k.encode_MiBps, "MiB/s"},
      {"codec.decode_MiBps", k.decode_MiBps, "MiB/s"},
      {"codec.ratio", k.codec_ratio, "ratio"},
      {"util.crc32c_GiBps", k.crc32c_GiBps, "GiB/s"},
      {"iosim.busy_s_per_coll", static_cast<double>(fs.busy_ns) / 1e9 /
                                    static_cast<double>(colls), "s"},
      {"iosim.opens_per_coll", PerColl(io.opens, colls), "count"},
      {"iosim.write_ops_per_coll", PerColl(io.writes, colls), "count"},
      {"iosim.read_ops_per_coll", PerColl(io.reads, colls), "count"},
      {"iosim.syncs_per_coll", PerColl(io.syncs, colls), "count"},
      {"iosim.write_amp",
       static_cast<double>(io.bytes_written) /
           (static_cast<double>(w.array_bytes()) * (b.pairs - 1)),
       "ratio"},
      {"store.shard_files", static_cast<double>(shard_files), "count"},
      {"msg.msgs_per_coll",
       PerColl(msg_c.messages_sent - msg_a2.messages_sent, colls), "count"},
      {"msg.wire_bytes_per_coll",
       PerColl(msg_c.bytes_sent - msg_a2.bytes_sent, colls), "B"},
      {"msg.sendrecv_us", k.sendrecv_us, "us"},
      {"sched.switches_per_coll",
       sched_per_coll(&panda::sched::Stats::context_switches, true), "count"},
      {"sched.parks_per_coll",
       sched_per_coll(&panda::sched::Stats::parks, true), "count"},
      {"sched.yields_per_coll",
       sched_per_coll(&panda::sched::Stats::yields, false), "count"},
      {"sched.parallel_speedup", sq[1], "ratio"},
      {"sched.parallel_speedup_q1", sq[0], "ratio"},
      {"sched.parallel_speedup_q3", sq[2], "ratio"},
      {"sp2.virtual_write_s", b.write_virtual_s[1], "virtual_s"},
      {"sp2.virtual_read_s", b.read_virtual_s[1], "virtual_s"},
      {"host.cpu_s_per_GiB", cpu_s / gib_moved, "s/GiB"},
      {"host.allocs_per_coll",
       PerColl(b.loop_end.heap.allocs - b.loop_begin.heap.allocs, colls),
       "count"},
      {"host.heap_peak_mb", heap_peak_mb, "MB"},
      {"trace.overhead_pct", 100.0 * (traced_pair / one_carrier - 1.0), "%"},
  };
  out.virtual_write_s = b.write_virtual_s[1];
  out.virtual_read_s = b.read_virtual_s[1];
  if (!trace_out.empty() && !spans.WriteChromeTrace(trace_out, origin)) {
    std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
  }
  return out;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

void PrintJson(const WorkloadSpec& w, const Outcome& out) {
  std::string json = "{\"workload\":" + JsonString(w.name);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                ",\"correct\":%s,\"attempted\":%lld,\"failed\":%lld",
                out.failed == 0 ? "true" : "false",
                static_cast<long long>(out.attempted),
                static_cast<long long>(out.failed));
  json += buf;
  json += ",\"metrics\":{";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::snprintf(buf, sizeof(buf), "%s:{\"value\":%.17g,\"unit\":%s}",
                  JsonString(m.name).c_str(), m.value,
                  JsonString(m.unit).c_str());
    json += (i > 0 ? "," : "") + std::string(buf);
  }
  std::snprintf(buf, sizeof(buf),
                "},\"virtual\":{\"write_s\":%.17g,\"read_s\":%.17g}",
                out.virtual_write_s, out.virtual_read_s);
  json += buf;
  json += "}";
  std::printf("%s\n", json.c_str());
}

int Main(int argc, char** argv) {
  panda::Options opts(argc, argv);
  const std::string name = opts.GetString("workload", "");
  const auto seed = static_cast<std::uint64_t>(opts.GetInt("seed", 1));
  const double seconds = opts.GetDouble("seconds", 10.0);
  const bool trace = opts.GetInt("trace", 0) != 0;
  const std::string trace_out = opts.GetString("trace_out", "");
  opts.CheckAllConsumed();

  const WorkloadSpec* w = FindWorkload(name);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown --workload '%s'; known:", name.c_str());
    for (const std::string& n : WorkloadNames()) {
      std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  if (!(seconds > 0.0)) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  const Outcome out = trace ? RunTraced(*w, seed, seconds, trace_out)
                            : RunMeasured(*w, seed, seconds);
  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "FAILED: %s\n", e.c_str());
  }
  PrintJson(*w, out);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
