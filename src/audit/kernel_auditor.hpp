#pragma once

/// \file kernel_auditor.hpp
/// The kernel access auditor: a memcheck-grade analysis pass over any
/// simt::Kernel, implemented as an AccessAudit the engine drives.
///
/// Four checkers run per launch:
///
///  * **initcheck** -- a read of a global word that was never written
///    (neither by the host nor by a kernel) is flagged and squashed;
///    a read of a word whose latest write came from a *previous epoch*
///    (see begin_epoch) is flagged as stale but allowed, reproducing
///    the PR-7 stale-tenant-slot bug class where sparse derivative
///    stores relied on construction-time zero fill.  Shared-memory
///    reads are checked against the writes of the current block.
///  * **OOB check** -- every access is resolved against the extent of
///    the buffer it was issued through; an overrun is flagged and
///    squashed *before* the simulator touches host memory, even when
///    it would land inside a neighbouring allocation.
///  * **synccheck** -- per warp-phase, lanes must behave like lockstep
///    SIMT: no accesses after mark_inactive, byte footprints agree per
///    access ordinal, and per-class access counts are monotonically
///    non-increasing in lane order (the shape of every strided and
///    one-element-per-thread loop in this codebase).
///  * **determinism lint** -- a store to a word that another thread
///    wrote earlier in the same epoch (earlier phase or launch), after
///    the storing thread read that word in the current phase, is
///    read-modify-write accumulation whose order real hardware does
///    not fix: the pattern that silently breaks bitwise parity.
///
/// A fifth check is driven by the caller, not by the engine hooks:
/// **footprint invariance** (check_footprint_invariance) compares one
/// kernel's stats at one launch key over two different inputs.  A
/// memoizing kernel (simt::StatsMemo) replays its first launch's stats,
/// which is only honest when its access pattern ignores the data.
///
/// Provenance: the auditor watches Device::upload / Device::fill / h2d
/// stream copies (host-initialized, durable across epochs) and every
/// kernel store (device-written, stamped with launch/phase/thread and
/// the current epoch).  Call begin_epoch() at each logical evaluation
/// boundary so cross-evaluation staleness is visible; attach() the
/// auditor *before* constructing evaluators so construction-time
/// uploads and fills register as host initialization.
///
/// Usage:
///   audit::KernelAuditor auditor;
///   auditor.attach(device);            // before building evaluators
///   core::FusedGpuEvaluator<double> ev(device, sys, batch);
///   auditor.begin_epoch();
///   ev.evaluate(points, results);      // runs serially, audited
///   for (const auto& f : auditor.findings()) ...

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "simt/audit_hook.hpp"
#include "simt/memory.hpp"
#include "simt/stats.hpp"

namespace polyeval::simt {
class Device;
class GlobalMemory;
}  // namespace polyeval::simt

namespace polyeval::audit {

enum class FindingKind {
  kUninitGlobalRead,   ///< read of a global word nobody ever wrote
  kStaleGlobalRead,    ///< read of a device-written word from a previous epoch
  kUninitSharedRead,   ///< read of a shared word not written in this block
  kGlobalOutOfBounds,  ///< access outside the originating buffer's extent
  kSharedOutOfBounds,  ///< access outside the block's shared allocation
  kConstantOutOfBounds,        ///< access outside the constant buffer
  kAccessAfterInactive,        ///< a lane kept issuing accesses after mark_inactive
  kFootprintDivergence,        ///< lanes disagree on an access ordinal's byte size
  kCountDivergence,            ///< per-class access counts increase with lane index
  kNondeterministicAccumulation,  ///< cross-thread RMW accumulation over a barrier
  kFootprintVariance,  ///< a kernel's launch stats moved with its input values
};

[[nodiscard]] const char* to_string(FindingKind kind) noexcept;

/// One checker hit, with enough provenance to act on without a debugger.
struct Finding {
  FindingKind kind = FindingKind::kUninitGlobalRead;
  std::string kernel;
  unsigned phase = 0;
  unsigned block = 0;
  unsigned warp = 0;
  unsigned lane = 0;
  unsigned thread = 0;        ///< thread index within the block
  std::uint64_t address = 0;  ///< device address (global) or byte offset
  std::string buffer;         ///< owning allocation name, or "<shared>" etc.
  std::size_t offset = 0;     ///< byte offset within `buffer`
  std::string provenance;     ///< who last initialized the word, if anyone
  std::string detail;         ///< human-readable one-liner
};

struct AuditOptions {
  bool initcheck = true;
  bool oob = true;
  bool synccheck = true;
  bool determinism = true;
  /// Findings beyond this count are tallied but not recorded.
  std::size_t max_findings = 256;
};

class KernelAuditor final : public simt::AccessAudit {
 public:
  explicit KernelAuditor(AuditOptions options = {}) : options_(options) {}

  /// Attach to a device: every subsequent launch is audited and every
  /// host-side write is registered as provenance.
  void attach(simt::Device& device);
  void detach();

  /// Start a new logical evaluation: device writes from before this
  /// point become *stale* for initcheck (host writes stay valid).
  void begin_epoch() noexcept { ++epoch_; }

  [[nodiscard]] const std::vector<Finding>& findings() const noexcept {
    return findings_;
  }
  /// Total findings including those dropped past max_findings.
  [[nodiscard]] std::size_t total_findings() const noexcept { return total_findings_; }
  [[nodiscard]] std::size_t launches_audited() const noexcept { return launches_; }
  /// Footprint invariance: `first` and `second` are one kernel's stats
  /// at one launch key (geometry and footprint tag) on two different
  /// inputs.  Every differing field is reported in one
  /// kFootprintVariance finding; returns whether the stats matched.
  bool check_footprint_invariance(const simt::KernelStats& first,
                                  const simt::KernelStats& second);

  void clear_findings() {
    findings_.clear();
    total_findings_ = 0;
  }

  // -- AccessAudit ------------------------------------------------------
  void begin_launch(std::string_view kernel, unsigned grid_blocks,
                    unsigned block_threads, std::size_t shared_bytes) override;
  void end_launch() override;
  bool on_global_load(const simt::AuditSite& site, std::uint64_t address,
                      std::size_t bytes, std::uint64_t buffer_address,
                      std::size_t buffer_bytes) override;
  bool on_global_store(const simt::AuditSite& site, std::uint64_t address,
                       std::size_t bytes, std::uint64_t buffer_address,
                       std::size_t buffer_bytes) override;
  bool on_shared_access(const simt::AuditSite& site, std::size_t byte_offset,
                        std::size_t bytes, bool is_write) override;
  bool on_constant_load(const simt::AuditSite& site, std::string_view buffer,
                        std::size_t byte_offset, std::size_t bytes,
                        std::size_t buffer_bytes) override;
  void on_inactive(const simt::AuditSite& site) override;
  void on_host_write(std::uint64_t address, std::size_t bytes) override;
  void on_memory_reset() override;

 private:
  /// Per-4-byte-word provenance of a global allocation.
  struct WordShadow {
    std::uint8_t origin = 0;   // kNever / kHost / kDevice
    std::uint16_t phase = 0;   // of the latest device write
    std::uint32_t launch = 0;  // of the latest device write
    std::uint64_t epoch = 0;   // of the latest device write
    std::uint64_t thread = 0;  // global thread index of the latest device write
  };
  static constexpr std::uint8_t kNever = 0;
  static constexpr std::uint8_t kHost = 1;
  static constexpr std::uint8_t kDevice = 2;

  /// Access classes tracked separately by synccheck.
  enum : unsigned { kClsLoad = 0, kClsStore, kClsShared, kClsConst, kClassCount };
  static constexpr unsigned kMaxLanes = 64;

  /// Synccheck state of the warp-phase currently executing.  Audited
  /// launches are serial, so one live warp state suffices.
  struct WarpState {
    bool valid = false;
    unsigned block = 0, phase = 0, warp = 0;
    std::array<std::array<std::uint32_t, kMaxLanes>, kClassCount> counts{};
    std::array<std::vector<std::uint32_t>, kClassCount> footprint;
    std::array<bool, kMaxLanes> inactive{};
    std::array<unsigned, kMaxLanes> lane_thread{};
  };

  void ensure_site(const simt::AuditSite& site);
  void flush_warp();
  void sync_record(unsigned cls, const simt::AuditSite& site, std::size_t bytes);
  void report(FindingKind kind, const simt::AuditSite& site, std::uint64_t address,
              std::string buffer, std::size_t offset, std::string provenance,
              std::string detail);
  [[nodiscard]] std::string describe(const WordShadow& shadow) const;
  [[nodiscard]] std::uint64_t global_thread(const simt::AuditSite& site) const noexcept {
    return static_cast<std::uint64_t>(site.block) * block_threads_ + site.thread;
  }
  [[nodiscard]] static std::uint64_t read_key(std::uint64_t word,
                                              std::uint64_t thread) noexcept {
    return (word << 20) | (thread & 0xFFFFFu);
  }
  /// Shadow table of the allocation owning `address` (created lazily);
  /// nullptr when the address is unmapped.
  std::vector<WordShadow>* shadow_of(std::uint64_t address,
                                     const simt::detail::Allocation** alloc_out);

  AuditOptions options_;
  simt::Device* device_ = nullptr;
  const simt::GlobalMemory* memory_ = nullptr;

  std::vector<Finding> findings_;
  std::size_t total_findings_ = 0;

  // launch state
  std::string kernel_;
  unsigned block_threads_ = 0;
  std::size_t shared_bytes_ = 0;
  std::size_t launches_ = 0;
  std::uint32_t launch_index_ = 0;
  std::uint64_t epoch_ = 1;

  // global shadows, keyed by allocation base address
  std::unordered_map<std::uint64_t, std::vector<WordShadow>> shadows_;
  std::uint64_t cached_base_ = 0, cached_end_ = 0;
  std::vector<WordShadow>* cached_shadow_ = nullptr;
  const simt::detail::Allocation* cached_alloc_ = nullptr;

  // per-block shared-write stamps (word written iff stamp matches)
  std::vector<std::uint64_t> shared_written_;
  std::uint64_t shared_stamp_ = 0;

  // per-phase (word, thread) read set for the determinism lint
  std::unordered_set<std::uint64_t> read_log_;

  WarpState warp_;
};

}  // namespace polyeval::audit
