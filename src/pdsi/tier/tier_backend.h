// plfs::Backend adapter over the tiering engine: PLFS containers (the
// per-rank logs, index files and metadata the writer/reader produce) live
// as engine objects, so checkpoint data written through PLFS is absorbed
// by the burst buffer, drained to the PFS, and demoted to the
// erasure-coded archive entirely under the engine's policies.
//
// The adapter owns the namespace (a pfs::Namespace: directories, empty
// files, the MDS's rules) — the engine is a flat object map — and owns the
// virtual clock: every engine completion advances it, compute() models
// client CPU time, fsync() is a flush (durability barrier) on the engine.
// Internally synchronised; concurrent rank threads serialise onto the
// engine's single timeline.
#pragma once

#include <memory>

#include "pdsi/plfs/backend.h"

namespace pdsi::tier {

class TierEngine;

/// `engine` must outlive the backend.
std::unique_ptr<plfs::Backend> MakeTierBackend(TierEngine& engine);

}  // namespace pdsi::tier
