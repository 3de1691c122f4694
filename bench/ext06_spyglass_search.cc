// Extension — partitioned metadata search (§4.2.2 Content Indexing).
//
// Paper: "our approach is 10-1000 times faster than existing database
// systems at metadata search ... failures in a portion of the index only
// require that portion to be rebuilt, avoiding a scan of the entire file
// system." Wall-clock comparison of the partitioned index vs a
// full-scan baseline over a half-million-record crawl.
#include <chrono>
#include <iostream>

#include "bench_util.h"
#include "pdsi/common/rng.h"
#include "pdsi/common/stats.h"
#include "pdsi/common/table.h"
#include "pdsi/common/units.h"
#include "pdsi/spyglass/spyglass.h"

using namespace pdsi;
using namespace pdsi::spyglass;

namespace {

double TimeIt(const std::function<std::size_t()>& fn, int reps,
              std::size_t* results) {
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t total = 0;
  for (int i = 0; i < reps; ++i) total += fn();
  const auto t1 = std::chrono::steady_clock::now();
  *results = total / reps;
  return std::chrono::duration<double>(t1 - t0).count() / reps;
}

}  // namespace

int main() {
  bench::Header("Metadata search: partitioned index vs full scan",
                "10-1000x faster than DBMS scans; partial rebuild after "
                "index corruption");

  constexpr std::size_t kFiles = 500000;
  auto crawl = SyntheticCrawl(kFiles, 128, 256, 48, 2009);
  ScanBaseline baseline(crawl);
  SpyglassIndex index(crawl, {20000});
  std::cout << "crawl: " << FormatCount(static_cast<double>(kFiles))
            << " records, " << index.partition_count() << " partitions\n";

  struct NamedQuery {
    const char* label;
    Query q;
  };
  std::vector<NamedQuery> queries;
  {
    Query q;
    q.owner = crawl[999].owner;
    queries.push_back({"files of one user", q});
    q.extension = crawl[999].extension;
    queries.push_back({"one user's files of one type", q});
    Query r;
    r.extension = crawl[5].extension;
    r.min_size = 8 << 20;
    queries.push_back({"big files of one type", r});
    Query s;
    s.min_mtime = 360.0 * 86400;  // touched in the last ~5 days
    queries.push_back({"recently modified (any type)", s});
  }

  // Query times are host wall clock and vary per run, so they go to
  // stderr; stdout keeps the deterministic columns.
  Table t({"query", "matches", "partitions skipped"});
  Table host({"query", "scan", "spyglass", "speedup"});
  for (const auto& nq : queries) {
    std::size_t scan_n = 0, idx_n = 0;
    const double scan_s =
        TimeIt([&] { return baseline.search(nq.q).size(); }, 5, &scan_n);
    const double idx_s =
        TimeIt([&] { return index.search(nq.q).size(); }, 5, &idx_n);
    t.row({nq.label, FormatCount(static_cast<double>(idx_n)),
           std::to_string(index.last_skipped()) + "/" +
               std::to_string(index.partition_count())});
    host.row({nq.label, FormatDuration(scan_s), FormatDuration(idx_s),
              FormatDouble(scan_s / idx_s, 0) + "x"});
  }
  t.print(std::cout);
  PrintBanner(std::cerr, "query host time (wall clock)");
  host.print(std::cerr);

  PrintBanner(std::cout, "index repair");
  SpyglassIndex damaged(crawl, {20000});
  const std::size_t partial = damaged.rebuild_partition(7, crawl);
  Table r({"strategy", "records rescanned", "fraction of namespace"});
  r.row({"partial rebuild (one partition)", FormatCount(static_cast<double>(partial)),
         FormatDouble(100.0 * partial / kFiles, 2) + "%"});
  r.row({"full rebuild (DBMS-style)", FormatCount(static_cast<double>(kFiles)),
         "100%"});
  r.print(std::cout);
  bench::Note("shape check: selective queries land in the 10-1000x band; "
              "the unselective recency query gains least (summaries only "
              "prune by max mtime).");
  return 0;
}
