#include "pdsi/pfs/config.h"

namespace pdsi::pfs {

PfsConfig PfsConfig::PanFsLike(std::uint32_t num_oss) {
  PfsConfig c;
  c.name = "panfs-like";
  c.num_oss = num_oss;
  c.locking = LockProtocol::extent;
  c.lock_unit = 64 * KiB;
  c.lock_revoke_s = 0.8e-3;
  // Object RAID: unaligned shared-file writes pay parity read-modify-write.
  c.rmw_unit = 64 * KiB;
  return c;
}

PfsConfig PfsConfig::LustreLike(std::uint32_t num_oss) {
  PfsConfig c;
  c.name = "lustre-like";
  c.num_oss = num_oss;
  c.locking = LockProtocol::extent;
  // LDLM extent locks: coarser grain, pricier ping-pong.
  c.lock_unit = 1 * MiB;
  c.lock_revoke_s = 1.5e-3;
  c.rmw_unit = 0;  // no client-visible parity RMW
  return c;
}

PfsConfig PfsConfig::GpfsLike(std::uint32_t num_oss) {
  PfsConfig c;
  c.name = "gpfs-like";
  c.num_oss = num_oss;
  c.locking = LockProtocol::extent;
  // Block-granular byte-range tokens.
  c.lock_unit = 256 * KiB;
  c.lock_revoke_s = 1.0e-3;
  c.rmw_unit = 256 * KiB;
  return c;
}

PfsConfig PfsConfig::PvfsLike(std::uint32_t num_oss) {
  PfsConfig c;
  c.name = "pvfs-like";
  c.num_oss = num_oss;
  c.locking = LockProtocol::none;
  c.rmw_unit = 0;
  return c;
}

}  // namespace pdsi::pfs
