// Reference figures for README.md: the storage_steady loop shape (one
// register, a write then 4 reads by 2 alternating readers, one blocking op
// outstanding) on the ABD baseline and on RQS, both on 7 servers with
// long-lived clusters, so RQS against ABD is timed like for like.
//
//   perfbench_abd_reference [seconds-per-protocol]   (default 5)
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "core/constructions.hpp"
#include "storage/abd.hpp"
#include "storage/harness.hpp"

namespace {

using namespace perfbench;
using rqs::ProcessId;
using rqs::ProcessSet;
using rqs::Value;

constexpr int kReads = 4;
constexpr std::size_t kServers = 7;

struct Lat {
  Samples write_ns;
  Samples read_ns;
  bool ok{true};
};

void print(const char* name, const Lat& l) {
  std::printf("%-28s write p50 %7.3f us  read p50 %7.3f us  (n=%zu / %zu)%s\n",
              name, l.write_ns.percentile_us(50), l.read_ns.percentile_us(50),
              l.write_ns.count(), l.read_ns.count(), l.ok ? "" : "  WRONG VALUE");
}

Lat run_abd(double seconds) {
  rqs::sim::Simulation sim;
  const ProcessSet servers = ProcessSet::universe(kServers);
  std::vector<std::unique_ptr<rqs::storage::AbdServer>> nodes;
  for (ProcessId id = 0; id < kServers; ++id) {
    nodes.push_back(std::make_unique<rqs::storage::AbdServer>(sim, id));
  }
  rqs::storage::AbdWriter writer(sim, 40, servers);
  rqs::storage::AbdReader r0(sim, 41, servers);
  rqs::storage::AbdReader r1(sim, 42, servers);
  rqs::storage::AbdReader* readers[2] = {&r0, &r1};
  Lat lat;
  Value v = 0;
  run_for(seconds, [&] {
    bool done = false;
    std::int64_t t0 = now_ns();
    writer.write(++v, [&] { done = true; });
    while (!done && sim.step()) {
    }
    lat.write_ns.add(now_ns() - t0);
    for (int i = 0; i < kReads; ++i) {
      Value out = rqs::kBottom;
      done = false;
      t0 = now_ns();
      readers[i % 2]->read([&](Value r) {
        done = true;
        out = r;
      });
      while (!done && sim.step()) {
      }
      lat.read_ns.add(now_ns() - t0);
      lat.ok = lat.ok && out == v;
    }
  });
  return lat;
}

Lat run_rqs(double seconds) {
  rqs::storage::StorageClusterConfig cfg;
  cfg.reader_count = 2;
  auto cluster = std::make_unique<rqs::storage::StorageCluster>(
      rqs::make_3t1_instantiation(2), cfg);
  Lat lat;
  Value v = 0;
  std::uint64_t rounds = 0;
  run_for(seconds, [&] {
    // Rebuilt now and then: the cluster's op log grows with every op.
    if (++rounds % 20000 == 0) {
      cluster = std::make_unique<rqs::storage::StorageCluster>(
          rqs::make_3t1_instantiation(2), cfg);
    }
    std::int64_t t0 = now_ns();
    cluster->blocking_write(0, ++v);
    lat.write_ns.add(now_ns() - t0);
    for (int i = 0; i < kReads; ++i) {
      t0 = now_ns();
      const Value out = cluster->blocking_read(0, static_cast<std::size_t>(i % 2)).value;
      lat.read_ns.add(now_ns() - t0);
      lat.ok = lat.ok && out == v;
    }
  });
  return lat;
}

}  // namespace

int main(int argc, char** argv) {
  const double seconds = argc > 1 ? std::atof(argv[1]) : 5.0;
  if (!(seconds > 0.0)) return 2;
  const Lat abd = run_abd(seconds);
  const Lat rqs = run_rqs(seconds);
  print("ABD, 7 servers (majority)", abd);
  print("RQS, 3t+1 (t = 2), 1 key", rqs);
  return abd.ok && rqs.ok ? 0 : 1;
}
