#include "kernels.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>

#include "mdarray/strided_copy.h"
#include "util/crc32c.h"

namespace perfbench {

using panda::Array;
using panda::CodecId;
using panda::IoPlan;

namespace {

constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;
constexpr double kMiB = 1024.0 * 1024.0;
// Bytes one pack/codec pass covers (whole clients / sub-chunks are added
// until this is reached).
constexpr std::int64_t kPassBytes = 16 << 20;
// Keeps the CRC passes from being optimized away.
volatile std::uint32_t crc_sink = 0;

// Runs `pass` repeatedly until `budget_s` is spent (at least three
// times) and returns the median pass duration in seconds.
double MedianPass(double budget_s, SpanLog* spans, const char* name,
                  const std::function<void()>& pass) {
  std::vector<double> times;
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(budget_s * 1e9);
  while (times.size() < 3 || (NowNs() < deadline && times.size() < 10000)) {
    const std::int64_t s = NowNs();
    pass();
    const std::int64_t e = NowNs();
    if (spans != nullptr) spans->Add(Span{name, s, e, -1, 0});
    times.push_back(static_cast<double>(e - s) / 1e9);
  }
  return Median(std::move(times));
}

void ReplayPlan(const WorkloadSpec& w, const panda::ArrayMeta& meta,
                std::int64_t subchunk_bytes, double budget_s, SpanLog* spans,
                KernelReport& r) {
  const std::int64_t before = Heap().live_bytes;
  {
    const IoPlan plan(meta, w.servers, subchunk_bytes);
    r.plan_heap_mb =
        static_cast<double>(Heap().live_bytes - before) / (1024.0 * 1024.0);
    r.plan_pieces = plan.TotalPieces();
  }
  r.plan_build_ms = 1e3 * MedianPass(budget_s, spans, "plan.build", [&] {
                      const IoPlan plan(meta, w.servers, subchunk_bytes);
                      if (plan.TotalPieces() != r.plan_pieces) {
                        throw std::runtime_error("plan rebuilt differently");
                      }
                    });
}

void ReplayPackUnpack(const WorkloadSpec& w, std::uint64_t seed,
                      const IoPlan& plan, double budget_s, SpanLog* spans,
                      KernelReport& r) {
  // Whole clients, from client 0, until a pass covers kPassBytes.
  std::vector<std::unique_ptr<Array>> arrays;
  std::int64_t bytes = 0;
  for (int c = 0; c < w.clients && bytes < kPassBytes; ++c) {
    auto array = std::make_unique<Array>(MakeArray(w));
    array->BindClient(c, /*allocate=*/true);
    FillRegion(w, seed, 0, array->local_region(), array->local_data());
    bytes += static_cast<std::int64_t>(array->local_data().size());
    arrays.push_back(std::move(array));
  }
  std::vector<std::byte> packed(static_cast<size_t>(bytes));
  const std::vector<std::byte> expected = [&] {
    std::vector<std::byte> all;
    for (const auto& a : arrays) {
      all.insert(all.end(), a->local_data().begin(), a->local_data().end());
    }
    return all;
  }();
  auto for_each_piece = [&](auto&& fn) {
    std::size_t at = 0;
    for (const auto& a : arrays) {
      for (const panda::ClientStep& step : plan.StepsOfClient(a->client_pos())) {
        const panda::PiecePlan& piece = plan.piece(step);
        fn(*a, piece, std::span<std::byte>(packed.data() + at,
                                           static_cast<size_t>(piece.bytes)));
        at += static_cast<size_t>(piece.bytes);
      }
    }
  };
  const double pack_s = MedianPass(budget_s, spans, "mdarray.pack", [&] {
    for_each_piece([&](Array& a, const panda::PiecePlan& piece,
                       std::span<std::byte> dst) {
      panda::PackRegion(dst, a.local_data(), a.local_region(), piece.region, 4);
    });
  });
  const double unpack_s = MedianPass(budget_s, spans, "mdarray.unpack", [&] {
    for_each_piece([&](Array& a, const panda::PiecePlan& piece,
                       std::span<std::byte> src) {
      panda::UnpackRegion(a.local_data(), a.local_region(), src, piece.region,
                          4);
    });
  });
  std::size_t at = 0;
  for (const auto& a : arrays) {
    if (std::memcmp(a->local_data().data(), expected.data() + at,
                    a->local_data().size()) != 0) {
      throw std::runtime_error("pack/unpack round trip changed client data");
    }
    at += a->local_data().size();
  }
  r.pack_GiBps = static_cast<double>(bytes) / kGiB / pack_s;
  r.unpack_GiBps = static_cast<double>(bytes) / kGiB / unpack_s;
}

void ReplayCodecAndCrc(const WorkloadSpec& w, std::uint64_t seed,
                       const IoPlan& plan, double budget_s, SpanLog* spans,
                       KernelReport& r) {
  const CodecId codec =
      w.codec == CodecId::kNone ? CodecId::kShuffleRle : w.codec;
  std::vector<std::vector<std::byte>> raws;
  std::int64_t bytes = 0;
  for (const int ci : plan.ChunksOfServer(0)) {
    for (const panda::SubchunkPlan& sp :
         plan.chunks()[static_cast<size_t>(ci)].subchunks) {
      if (bytes >= kPassBytes) break;
      std::vector<std::byte> raw(static_cast<size_t>(sp.bytes));
      FillRegion(w, seed, 0, sp.region, raw);
      bytes += sp.bytes;
      raws.push_back(std::move(raw));
    }
  }
  std::vector<panda::SubchunkFrame> frames(raws.size());
  const double encode_s = MedianPass(budget_s, spans, "codec.encode", [&] {
    for (size_t i = 0; i < raws.size(); ++i) {
      frames[i] = panda::EncodeSubchunkFrame(codec, raws[i], 4);
    }
  });
  std::int64_t stored = 0;
  for (size_t i = 0; i < raws.size(); ++i) {
    stored += frames[i].frame_bytes(static_cast<std::int64_t>(raws[i].size()));
  }
  const double decode_s = MedianPass(budget_s, spans, "codec.decode", [&] {
    for (size_t i = 0; i < raws.size(); ++i) {
      const std::span<const std::byte> slot =
          frames[i].codec == CodecId::kNone
              ? std::span<const std::byte>(raws[i])
              : std::span<const std::byte>(frames[i].bytes);
      const std::vector<std::byte> back = panda::DecodeSubchunkFrame(
          slot, frames[i].codec, static_cast<std::int64_t>(raws[i].size()), 4);
      if (back != raws[i]) throw std::runtime_error("codec round trip differs");
    }
  });
  std::uint32_t sink = 0;
  const double crc_s = MedianPass(budget_s, spans, "util.crc32c", [&] {
    for (const auto& raw : raws) sink ^= panda::Crc32c(raw);
  });
  crc_sink = sink;
  r.encode_MiBps = static_cast<double>(bytes) / kMiB / encode_s;
  r.decode_MiBps = static_cast<double>(bytes) / kMiB / decode_s;
  r.codec_ratio = static_cast<double>(bytes) / static_cast<double>(stored);
  r.crc32c_GiBps = static_cast<double>(bytes) / kGiB / crc_s;
}

// Two client ranks bounce one message of `bytes`; returns host
// microseconds per one-way Send+Recv (median pass of 64 round trips).
double PingPongMicros(const WorkloadSpec& w, std::int64_t bytes,
                      double budget_s, SpanLog* spans) {
  constexpr int kRounds = 64;
  panda::Machine machine =
      panda::Machine::Simulated(2, 1, panda::Sp2Params::Nas(),
                                /*store_data=*/!w.timing_only, w.timing_only);
  machine.SetSchedBackend(panda::sched::Backend::kFiber, 1);
  auto make = [&](bool more, std::vector<std::byte> payload) {
    panda::Message m;
    m.header.push_back(std::byte{more ? std::uint8_t{1} : std::uint8_t{0}});
    if (w.timing_only) {
      m.SetVirtualPayload(bytes);
    } else {
      m.SetPayload(std::move(payload));
    }
    return m;
  };
  std::vector<double> passes;
  machine.Run(
      [&](panda::Endpoint& ep, int c) {
        const int tag = panda::kTagPieceData;
        if (c == 1) {
          for (;;) {
            panda::Message m = ep.Recv(0, tag);
            if (m.header.at(0) == std::byte{0}) return;
            ep.Send(0, tag, make(true, std::move(m.payload)));
          }
        }
        std::vector<std::byte> payload(
            w.timing_only ? 0 : static_cast<size_t>(bytes), std::byte{7});
        const std::int64_t deadline =
            NowNs() + static_cast<std::int64_t>(budget_s * 1e9);
        while (passes.size() < 3 || NowNs() < deadline) {
          const std::int64_t s = NowNs();
          for (int i = 0; i < kRounds; ++i) {
            ep.Send(1, tag, make(true, std::move(payload)));
            payload = std::move(ep.Recv(1, tag).payload);
          }
          const std::int64_t e = NowNs();
          if (spans != nullptr) spans->Add(Span{"msg.pingpong", s, e, -1, 0});
          passes.push_back(static_cast<double>(e - s) / 1e9 / (2 * kRounds));
        }
        ep.Send(1, tag, make(false, {}));
      },
      [](panda::Endpoint&, int) {});
  return 1e6 * Median(std::move(passes));
}

}  // namespace

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<double> Quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto ld = static_cast<std::int64_t>(v.size());
  if (ld < 2) return {v.at(0), v.at(0), v.at(0)};
  std::vector<double> q;
  const std::int64_t m = ld + 1;
  for (std::int64_t i = 1; i < 4; ++i) {
    std::int64_t j = i * m / 4;
    j = std::clamp<std::int64_t>(j, 1, ld - 1);
    const std::int64_t delta = i * m - j * 4;
    q.push_back((v[static_cast<size_t>(j - 1)] * static_cast<double>(4 - delta) +
                 v[static_cast<size_t>(j)] * static_cast<double>(delta)) /
                4.0);
  }
  return q;
}

KernelReport ReplayKernels(const WorkloadSpec& w, std::uint64_t seed,
                           double budget_s, SpanLog* spans) {
  KernelReport r;
  const panda::ArrayMeta meta = MakeArray(w).meta();
  const std::int64_t subchunk = panda::Sp2Params::Nas().subchunk_bytes;
  ReplayPlan(w, meta, subchunk, budget_s, spans, r);
  const IoPlan plan(meta, w.servers, subchunk);
  ReplayPackUnpack(w, seed, plan, budget_s, spans, r);
  ReplayCodecAndCrc(w, seed, plan, budget_s, spans, r);

  std::vector<double> sizes;
  for (const panda::ChunkPlan& chunk : plan.chunks()) {
    for (const panda::SubchunkPlan& sp : chunk.subchunks) {
      for (const panda::PiecePlan& piece : sp.pieces) {
        sizes.push_back(static_cast<double>(piece.bytes));
      }
    }
  }
  r.median_message_bytes = static_cast<std::int64_t>(Median(std::move(sizes)));
  r.sendrecv_us = PingPongMicros(w, r.median_message_bytes, budget_s, spans);
  return r;
}

}  // namespace perfbench
