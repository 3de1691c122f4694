// Fig. 9 — TCP incast goodput collapse and the fine-grained-RTO fix.
//
// Paper: synchronized reads from up to 47 senders to one 1GE client
// collapse goodput (200 ms minimum RTO idles the link after full-window
// losses); lowering the minimum RTO to ~1 ms restores throughput, and at
// 10GE scale (hundreds to thousands of senders) the retransmission
// timeout also needs randomisation to desynchronise senders.
#include <algorithm>
#include <iostream>

#include "bench_util.h"
#include "pdsi/common/stats.h"
#include "pdsi/common/table.h"
#include "pdsi/common/units.h"
#include "pdsi/incast/incast.h"

using namespace pdsi;

namespace {

void Sweep(const char* title, const char* link, double link_bw,
           std::uint32_t buffer_pkts, std::uint64_t sru,
           const std::vector<std::uint32_t>& senders) {
  PrintBanner(std::cout, title);
  bench::Report t("fig09_incast",
                  {{"", "link"}, {"senders", "senders", bench::Fixed(0)},
                   {"rto=200ms", "coarse_mbs", FormatRate, 1e6},
                   {"timeouts", "coarse_timeouts", bench::Fixed(0)},
                   {"rto=1ms", "fine_mbs", FormatRate, 1e6},
                   {"rto=1ms+rand", "rand_mbs", FormatRate, 1e6},
                   {"timeouts(rand)", "rand_timeouts", bench::Fixed(0)}});
  double peak_coarse = 0.0, floor_coarse = 1e300;
  double floor_fine = 1e300, floor_rand = 1e300;
  for (std::uint32_t n : senders) {
    incast::IncastParams p;
    p.senders = n;
    p.sru_bytes = sru;
    p.blocks = 4;
    p.link_bw_bytes = link_bw;
    p.buffer_packets = buffer_pkts;

    p.min_rto_s = 0.2;
    p.rto_jitter = 0.0;
    const auto coarse = incast::SimulateIncast(p);

    p.min_rto_s = 1e-3;
    const auto fine = incast::SimulateIncast(p);

    p.rto_jitter = 0.5;
    const auto fine_rand = incast::SimulateIncast(p);

    t.row({link, n, coarse.goodput_bytes, coarse.timeouts, fine.goodput_bytes,
           fine_rand.goodput_bytes, fine_rand.timeouts});

    peak_coarse = std::max(peak_coarse, coarse.goodput_bytes);
    floor_coarse = std::min(floor_coarse, coarse.goodput_bytes);
    floor_fine = std::min(floor_fine, fine.goodput_bytes);
    floor_rand = std::min(floor_rand, fine_rand.goodput_bytes);
  }
  t.print();
  bench::Report::Emit("fig09_incast", {{"link", link},
                                       {"row", "summary"},
                                       {"peak_coarse_mbs", peak_coarse / 1e6},
                                       {"floor_coarse_mbs", floor_coarse / 1e6},
                                       {"collapse_x", peak_coarse / floor_coarse},
                                       {"fine_floor_mbs", floor_fine / 1e6},
                                       {"rand_floor_mbs", floor_rand / 1e6}});
}

}  // namespace

int main() {
  bench::Header("Fig. 9: incast goodput vs number of senders",
                "1GE: collapse by ~10x past a handful of senders with "
                "200 ms RTO-min; 1 ms RTO-min restores goodput. 10GE/many "
                "senders additionally needs RTO randomisation.");

  Sweep("1GE client link, 64-packet port buffer, SRU 256 KiB",
        "1ge", 125e6, 64, 256 * 1024,
        {2, 4, 8, 12, 16, 24, 32, 40, 47});

  Sweep("10GE client link, 256-packet port buffer, SRU 32 KiB",
        "10ge", 1250e6, 256, 32 * 1024,
        {16, 64, 128, 256, 512, 1024, 2048});

  bench::Note("shape check: 1GE collapse onset within ~8-16 senders; "
              "fine-grained RTO holds goodput near line rate; at 10GE "
              "scale the randomised column dominates the plain 1 ms one.");
  return 0;
}
