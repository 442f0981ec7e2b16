// Thread-scaling of the snapshot-clustering hot path (util/thread_pool.h):
// the same workload at 1/2/4/8 threads, with the 1-thread run as both the
// baseline and the correctness oracle — every multi-threaded run must
// reproduce it bit for bit (labels, clusters, companion log, and the
// distance_ops / intersections counters) or the bench aborts. Speedup is
// the payoff; determinism is the contract.

#include <cstdlib>
#include <iostream>
#include <vector>

#include "bench/bench_common.h"
#include "core/buddy_discovery.h"
#include "core/dbscan.h"
#include "util/timer.h"

namespace tcomp {
namespace bench {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};

void CheckSame(bool ok, const char* what, int threads) {
  if (!ok) {
    std::cerr << "FATAL: " << what << " differs between threads=1 and "
              << "threads=" << threads << " — determinism contract broken\n";
    std::exit(1);
  }
}

bool SameClustering(const Clustering& a, const Clustering& b) {
  return a.labels == b.labels && a.core == b.core && a.clusters == b.clusters;
}

std::string Speedup(double base_seconds, double seconds) {
  return seconds > 0.0 ? FormatDouble(base_seconds / seconds, 2) + "x" : "-";
}

int Main(int argc, const char* const* argv) {
  BenchConfig config = ParseBenchConfig(argc, argv);
  Banner("(threading)", "snapshot-clustering scaling with --threads",
         config);

  // One large stream: 5,000 objects is the paper's D3 scale, big enough
  // that the O(n²) neighbor stage dominates.
  Dataset d = MakeSyntheticDataset("bench", /*num_objects=*/5000,
                                   /*num_snapshots=*/12, /*seed=*/42);
  DiscoveryParams params = d.default_params;

  // --- Clustering stage in isolation (the O(n²) Dbscan). ---------------
  TablePrinter cluster_table({"threads", "dbscan-n2", "speedup"});
  const Snapshot& big = d.stream[0];
  Clustering ref_plain;
  int64_t ref_plain_ops = 0;
  double base_plain = 0.0;
  for (int threads : kThreadCounts) {
    DbscanParams cp = params.cluster;
    cp.threads = threads;

    Timer plain;
    int64_t plain_ops = 0;
    plain.Start();
    Clustering got_plain = Dbscan(big, cp, &plain_ops);
    plain.Stop();

    if (threads == 1) {
      ref_plain = got_plain;
      ref_plain_ops = plain_ops;
      base_plain = plain.Seconds();
    } else {
      CheckSame(SameClustering(got_plain, ref_plain), "Dbscan clustering",
                threads);
      CheckSame(plain_ops == ref_plain_ops, "Dbscan distance_ops", threads);
    }
    cluster_table.AddRow({std::to_string(threads),
                          FormatDouble(plain.Milliseconds(), 1) + "ms",
                          Speedup(base_plain, plain.Seconds())});
  }
  std::cout << "\nClustering one 5,000-object snapshot (dbscan-n2)\n";
  cluster_table.Print();

  // --- Full BU discovery over the stream. -------------------------------
  TablePrinter bu_table({"threads", "total", "speedup", "maintain",
                         "cluster", "intersect"});
  std::vector<Companion> ref_log;
  int64_t ref_intersections = 0;
  double base_bu = 0.0;
  for (int threads : kThreadCounts) {
    DiscoveryParams p = params;
    p.cluster.threads = threads;
    BuddyDiscoverer bu(p);
    Timer total;
    total.Start();
    for (const Snapshot& s : d.stream) bu.ProcessSnapshot(s, nullptr);
    total.Stop();

    const std::vector<Companion>& log = bu.log().companions();
    if (threads == 1) {
      ref_log = log;
      ref_intersections = bu.stats().intersections;
      base_bu = total.Seconds();
    } else {
      bool same = log.size() == ref_log.size();
      for (size_t i = 0; same && i < log.size(); ++i) {
        same = log[i].objects == ref_log[i].objects &&
               log[i].duration == ref_log[i].duration &&
               log[i].snapshot_index == ref_log[i].snapshot_index;
      }
      CheckSame(same, "BU companion log", threads);
      CheckSame(bu.stats().intersections == ref_intersections,
                "BU intersections", threads);
    }
    const DiscoveryStats& st = bu.stats();
    bu_table.AddRow({std::to_string(threads),
                     FormatDouble(total.Seconds(), 3) + "s",
                     Speedup(base_bu, total.Seconds()),
                     FormatDouble(st.maintain_seconds, 3) + "s",
                     FormatDouble(st.cluster_seconds, 3) + "s",
                     FormatDouble(st.intersect_seconds, 3) + "s"});
  }
  std::cout << "\nBU discovery over the 5,000-object stream ("
            << ref_log.size() << " companions at every thread count)\n";
  bu_table.Print();

  std::cout << "\nExpected shape: near-linear dbscan-n2 scaling up to the "
               "core count (the\nneighbor stage is embarrassingly parallel "
               "over strided rows); BU scales\nless — its serial "
               "stitch/merge phases bound the win (Amdahl). On a\n"
               "single-core host every speedup column reads ~1.0x; the "
               "determinism checks\nstill bite.\n";
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace tcomp

int main(int argc, char** argv) {
  return tcomp::bench::Main(argc, argv);
}
