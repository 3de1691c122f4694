#include <algorithm>
#include <memory>

#include "pdsi/bb/drain_target.h"
#include "pdsi/fault/fault.h"
#include "pdsi/pfs/cluster.h"

namespace pdsi::bb {
namespace {

// Stripes each drain unit across the cluster's object storage servers the
// same way PfsClient's data path does, but without the client-side lock
// protocol: the drain stream is a single sequential writer per file, which
// is exactly the pattern the PFS serves at full speed (and the reason a
// burst buffer converts N-to-1 checkpoint chaos into PFS-friendly I/O).
class PfsDrainTarget final : public DrainTarget {
 public:
  explicit PfsDrainTarget(pfs::PfsCluster& cluster) : cluster_(cluster) {}

  double drain(std::uint64_t file, std::uint64_t off, std::uint64_t len,
               double now) override {
    fault::FaultInjector* inj = cluster_.fault();
    double done = now;
    cluster_.for_each_chunk(
        file, off, len, [&](std::uint32_t server, std::uint64_t pos, std::uint64_t n) {
          double issue = now;
          // The drain is not latency-sensitive, so an injected OSS crash
          // just parks this chunk until the server restarts (plus one RPC
          // timeout for the failed attempt that detected the crash).
          if (inj && inj->down(server, issue)) {
            const double resume =
                inj->next_up(server, issue) + inj->plan().rpc_timeout_s;
            inj->note_drain_retry(server, issue, resume);
            issue = resume;
          }
          done = std::max(done, cluster_.oss(server).serve_write(file, pos, n, issue));
          return true;
        });
    return done;
  }

 private:
  pfs::PfsCluster& cluster_;
};

}  // namespace

std::unique_ptr<DrainTarget> MakePfsDrainTarget(pfs::PfsCluster& cluster) {
  return std::make_unique<PfsDrainTarget>(cluster);
}

}  // namespace pdsi::bb
