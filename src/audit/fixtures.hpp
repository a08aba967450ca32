#pragma once

/// \file fixtures.hpp
/// Seeded-violation kernels that prove each auditor checker fires.
///
/// Every fixture allocates its own buffers on the given device and
/// launches one or two small kernels that commit exactly one hazard
/// class; the auditor must already be attached to the device.  The
/// fixtures are shared by test_audit and the kernel_audit CLI (which
/// gates in CI that every checker still fires before trusting a clean
/// production sweep).  Use a scratch device: fixture allocations are
/// never freed individually.

#include "audit/kernel_auditor.hpp"

namespace polyeval::simt {
class Device;
}

namespace polyeval::audit::fixtures {

/// The resurrected PR-7 bug: a multi-tenant-style slot whose sparse
/// derivative stores rely on construction-time zero fill.  Tenant A
/// writes support {0}, tenant B writes support {1}; without the
/// per-launch re-zero, B's read phase sees A's word from the previous
/// epoch.  Expects one kStaleGlobalRead against buffer "FxMons".
void run_stale_slot(KernelAuditor& auditor, simt::Device& device);

/// Reads a global word no transfer or kernel ever wrote, and a shared
/// word before any thread of the block wrote it.  Expects
/// kUninitGlobalRead (squashed) and kUninitSharedRead.
void run_uninit_read(KernelAuditor& auditor, simt::Device& device);

/// Stores and loads past a 4-element buffer's extent.  Expects two
/// kGlobalOutOfBounds findings, both squashed before the simulator
/// touches host memory past the allocation's storage.
void run_out_of_bounds(KernelAuditor& auditor, simt::Device& device);

/// Breaks warp lockstep three ways: a lane accessing after
/// mark_inactive, lanes disagreeing on an access ordinal's byte size,
/// and a higher lane issuing more accesses than a lower one.  Expects
/// kAccessAfterInactive, kFootprintDivergence and kCountDivergence.
void run_lane_divergence(KernelAuditor& auditor, simt::Device& device);

/// Cross-block read-modify-write accumulation into one address over a
/// phase boundary -- ordered by barriers here, unordered on real
/// hardware.  Expects kNondeterministicAccumulation.  Launched with
/// detect_races off: the launch-wide race journal conservatively flags
/// the cross-phase double write, which is exactly the pattern this
/// lint exists to diagnose rather than throw on.
void run_nondeterministic_accumulation(KernelAuditor& auditor,
                                       simt::Device& device);

/// A memoizing kernel whose load addresses come from point data: each
/// thread reads table[thread * stride] with `stride` loaded from the
/// input.  Two instrumented launches at one key over inputs with
/// strides 1 and 16 coalesce differently, so check_footprint_invariance
/// must report kFootprintVariance against kernel "fx_data_index".
void run_footprint_variance(KernelAuditor& auditor, simt::Device& device);

}  // namespace polyeval::audit::fixtures
