#pragma once

/// \file stats.hpp
/// Instrumentation records produced by the simulator: per-launch kernel
/// statistics (work, memory behaviour, occupancy) feeding the timing
/// model and the memory-behaviour assertions in the tests.

#include <cstdint>
#include <string>
#include <vector>

namespace polyeval::simt {

/// Per-launch statistics.  "Requests" are warp-level memory instructions;
/// "transactions" are the 128-byte segment accesses they decompose into.
/// A fully coalesced request costs ceil(bytes/128) transactions; scattered
/// requests cost up to one per lane.
struct KernelStats {
  std::string kernel;
  std::uint64_t blocks = 0;
  std::uint64_t threads = 0;
  std::uint64_t warps = 0;

  // Work (complex-arithmetic operations, the paper's cost unit).
  std::uint64_t complex_mul_total = 0;
  std::uint64_t complex_add_total = 0;
  std::uint64_t complex_mul_per_thread_max = 0;
  std::uint64_t complex_add_per_thread_max = 0;

  // Global memory behaviour.
  std::uint64_t global_load_requests = 0;
  std::uint64_t global_load_transactions = 0;
  std::uint64_t global_store_requests = 0;
  std::uint64_t global_store_transactions = 0;
  std::uint64_t global_bytes_loaded = 0;
  std::uint64_t global_bytes_stored = 0;

  // Shared memory behaviour: cycles >= requests, the excess counts
  // bank-conflict serialization.
  std::uint64_t shared_requests = 0;
  std::uint64_t shared_cycles = 0;

  // Constant memory reads (served by the constant cache, broadcast).
  std::uint64_t constant_reads = 0;

  // SIMT uniformity: lanes that marked themselves inactive in a phase.
  std::uint64_t inactive_lane_phases = 0;

  // Race hazards found by the journal (unordered same-phase accesses to
  // one location with a writer involved); launches throw on these unless
  // LaunchConfig::detect_races is cleared.
  std::uint64_t race_hazards = 0;

  // Occupancy-derived quantities.
  unsigned warps_per_block = 0;
  unsigned concurrent_blocks_per_sm = 0;  ///< resource-limited residency
  unsigned waves = 0;                     ///< ceil(blocks / (SMs * residency))
  std::uint64_t warps_on_busiest_sm = 0;  ///< serialization depth
  std::size_t shared_bytes_per_block = 0;

  /// Field-wise equality: a memo-replayed launch must equal the
  /// instrumented record it replays.
  friend bool operator==(const KernelStats&, const KernelStats&) = default;

  /// Coalescing efficiency of loads: 1.0 means every request hit the
  /// minimum possible number of segments.
  [[nodiscard]] double load_coalescing_ratio() const noexcept {
    return global_load_transactions == 0
               ? 1.0
               : static_cast<double>(global_load_requests) /
                     static_cast<double>(global_load_transactions);
  }
  [[nodiscard]] double store_coalescing_ratio() const noexcept {
    return global_store_transactions == 0
               ? 1.0
               : static_cast<double>(global_store_requests) /
                     static_cast<double>(global_store_transactions);
  }
  /// Extra shared-memory cycles caused by bank conflicts.
  [[nodiscard]] std::uint64_t bank_conflict_cycles() const noexcept {
    return shared_cycles - shared_requests;
  }
  /// Transactions per warp-level load request -- the profiling layer's
  /// access-pattern unit (1.0 = one segment per request, fully
  /// coalesced; the inverse of load_coalescing_ratio).
  [[nodiscard]] double load_transactions_per_request() const noexcept {
    return global_load_requests == 0
               ? 0.0
               : static_cast<double>(global_load_transactions) /
                     static_cast<double>(global_load_requests);
  }
  [[nodiscard]] double store_transactions_per_request() const noexcept {
    return global_store_requests == 0
               ? 0.0
               : static_cast<double>(global_store_transactions) /
                     static_cast<double>(global_store_requests);
  }
  /// Shared-memory cycles per request: 1.0 is conflict-free, N means
  /// the average request serializes N-way on the banks.
  [[nodiscard]] double shared_serialization() const noexcept {
    return shared_requests == 0 ? 1.0
                                : static_cast<double>(shared_cycles) /
                                      static_cast<double>(shared_requests);
  }
};

/// Host <-> device traffic (the PCIe term of the timing model).
struct TransferStats {
  std::uint64_t bytes_to_device = 0;
  std::uint64_t bytes_from_device = 0;
  std::uint64_t transfers_to_device = 0;
  std::uint64_t transfers_from_device = 0;
};

/// Everything one evaluation (or any instrumented region) produced.
struct LaunchLog {
  std::vector<KernelStats> kernels;
  TransferStats transfers;

  void clear() {
    kernels.clear();
    transfers = {};
  }
};

}  // namespace polyeval::simt
