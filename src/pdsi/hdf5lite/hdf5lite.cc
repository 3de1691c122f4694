#include "pdsi/hdf5lite/hdf5lite.h"

#include <algorithm>
#include <cassert>
#include <mutex>
#include <span>

#include "pdsi/common/bytes.h"
#include "pdsi/pfs/client.h"
#include "pdsi/pfs/cluster.h"

namespace pdsi::hdf5lite {
namespace {

/// File layout: [0, kHeaderBytes) holds the superblock + object headers;
/// dataset payload begins after it (optionally stripe-aligned).
constexpr std::uint64_t kHeaderBytes = 16 * 1024;
constexpr std::uint64_t kSuperblockBytes = 1024;
constexpr std::uint64_t kMetadataRecord = 256;

std::uint64_t DataStart(const pfs::PfsConfig& cfg, const H5Options& opt) {
  if (!opt.align_to_stripe) return kHeaderBytes;
  return (kHeaderBytes + cfg.stripe_unit - 1) / cfg.stripe_unit * cfg.stripe_unit;
}

/// Record size for record k of a rank: irregular dumps vary sizes so
/// region offsets never align (AMR boxes differ), keeping total constant.
std::uint64_t RecordBytes(const DumpSpec& spec, std::uint32_t k) {
  if (!spec.irregular) return spec.record_bytes;
  // +/- up to 25% in a deterministic pattern, zero-sum over 4 records.
  const std::int64_t quarter = static_cast<std::int64_t>(spec.record_bytes / 4);
  static constexpr std::int64_t kWave[4] = {1, -1, 1, -1};
  return spec.record_bytes + kWave[k % 4] * (quarter / 2) + (k % 7) * 64;
}

}  // namespace

DumpResult RunDump(const pfs::PfsConfig& cfg, const DumpSpec& spec,
                   const H5Options& options) {
  pfs::PfsConfig config = cfg;
  config.store_data = false;
  sim::VirtualScheduler sched(spec.ranks);
  sim::VirtualBarrier barrier(sched);
  pfs::PfsCluster cluster(config, sched);

  const std::uint64_t data_start = DataStart(config, options);
  // Every rank's region holds the same records. With store_data off the
  // PFS never reads a payload byte, so all writes share one read-only
  // zero buffer sized to the largest: a record, a collective buffer (at
  // most cb_buffer_bytes plus one record) or a header flush.
  std::uint64_t region_bytes = 0;
  std::uint64_t largest_record = 0;
  for (std::uint32_t k = 0; k < spec.records_per_rank; ++k) {
    region_bytes += RecordBytes(spec, k);
    largest_record = std::max(largest_record, RecordBytes(spec, k));
  }
  std::uint64_t largest_write =
      std::max({kSuperblockBytes, kMetadataRecord * spec.metadata_updates_per_rank,
                largest_record});
  if (options.collective_buffering) {
    largest_write = std::max(
        largest_write, std::min(region_bytes, options.cb_buffer_bytes + largest_record));
  }
  const Bytes zeros(largest_write);
  const auto payload_of = [&zeros](std::uint64_t n) {
    return std::span<const std::uint8_t>(zeros).first(n);
  };
  double t_begin = 0.0, t_end = 0.0;
  std::uint64_t payload = 0;
  std::mutex mu;

  sched.run([&](std::size_t actor) {
    const auto r = static_cast<std::uint32_t>(actor);
    pfs::PfsClient client(cluster, r);
    const double t0 = barrier.arrive(r);
    if (r == 0) t_begin = t0;

    pfs::FileHandle fh;
    if (r == 0) {
      fh = *client.create("/dump.h5");
      client.write(fh, 0, payload_of(kSuperblockBytes));
      barrier.arrive(r);
    } else {
      barrier.arrive(r);
      fh = *client.open("/dump.h5");
    }

    // Region of this rank within the dataset. Without alignment the
    // region start inherits the odd header offset and the irregular
    // record sizes; with collective buffering the rank writes its
    // region in large contiguous buffers instead of per-record.
    // Alignment pads each rank's region to a stripe multiple so
    // neighbouring ranks never share a lock/RAID unit.
    std::uint64_t region_stride = region_bytes;
    if (options.align_to_stripe) {
      region_stride = (region_bytes + config.stripe_unit - 1) /
                      config.stripe_unit * config.stripe_unit;
    }
    const std::uint64_t region_start =
        data_start + static_cast<std::uint64_t>(r) * region_stride;

    std::uint64_t meta_done = 0;
    auto maybe_metadata = [&](std::uint32_t k) {
      if (options.metadata_coalescing) return;  // deferred to close
      // Eager header/attribute update every few records: a tiny write
      // into the shared header region (one lock unit for everyone).
      const std::uint64_t per = std::max<std::uint32_t>(
          1, spec.records_per_rank / std::max(1u, spec.metadata_updates_per_rank));
      if (k % per == 0 && meta_done < spec.metadata_updates_per_rank) {
        client.write(fh, (r * 8 + meta_done) % 32 * kMetadataRecord,
                     payload_of(kMetadataRecord));
        ++meta_done;
      }
    };

    std::uint64_t local = 0;
    if (options.collective_buffering) {
      // Two-phase I/O: records exchange into cb-sized contiguous
      // buffers; the file sees large sequential writes per rank.
      std::uint64_t pos = region_start;
      std::uint64_t pending = 0;
      for (std::uint32_t k = 0; k < spec.records_per_rank; ++k) {
        pending += RecordBytes(spec, k);
        maybe_metadata(k);
        if (pending >= options.cb_buffer_bytes ||
            k + 1 == spec.records_per_rank) {
          client.write(fh, pos, payload_of(pending));
          pos += pending;
          local += pending;
          pending = 0;
        }
      }
    } else {
      // Independent I/O: one write per application record.
      std::uint64_t pos = region_start;
      for (std::uint32_t k = 0; k < spec.records_per_rank; ++k) {
        const std::uint64_t n = RecordBytes(spec, k);
        maybe_metadata(k);
        client.write(fh, pos, payload_of(n));
        pos += n;
        local += n;
      }
    }

    if (options.metadata_coalescing) {
      // One coalesced header flush by rank 0 at close.
      if (r == 0) {
        client.write(fh, 0, payload_of(kMetadataRecord * spec.metadata_updates_per_rank));
      }
    }
    client.close(fh);

    const double t1 = barrier.arrive(r);
    if (r == 0) t_end = t1;
    {
      std::lock_guard<std::mutex> lk(mu);
      payload += local;
    }
  });

  DumpResult out;
  out.seconds = t_end - t_begin;
  out.bytes = payload;
  return out;
}

DumpSpec ChomboSpec(std::uint32_t ranks) {
  DumpSpec s;
  s.name = "Chombo (AMR)";
  s.ranks = ranks;
  s.record_bytes = 40 * 1024;  // small irregular AMR box rows
  s.records_per_rank = 96;
  s.metadata_updates_per_rank = 12;
  s.irregular = true;
  return s;
}

DumpSpec GcrmSpec(std::uint32_t ranks) {
  DumpSpec s;
  s.name = "GCRM (global cloud model)";
  s.ranks = ranks;
  s.record_bytes = 128 * 1024;  // regular geodesic-grid slabs
  s.records_per_rank = 48;
  s.metadata_updates_per_rank = 6;
  s.irregular = false;
  return s;
}

}  // namespace pdsi::hdf5lite
