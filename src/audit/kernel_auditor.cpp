#include "audit/kernel_auditor.hpp"

#include <algorithm>

#include "simt/device.hpp"

namespace polyeval::audit {

const char* to_string(FindingKind kind) noexcept {
  switch (kind) {
    case FindingKind::kUninitGlobalRead: return "uninit-global-read";
    case FindingKind::kStaleGlobalRead: return "stale-global-read";
    case FindingKind::kUninitSharedRead: return "uninit-shared-read";
    case FindingKind::kGlobalOutOfBounds: return "global-out-of-bounds";
    case FindingKind::kSharedOutOfBounds: return "shared-out-of-bounds";
    case FindingKind::kConstantOutOfBounds: return "constant-out-of-bounds";
    case FindingKind::kAccessAfterInactive: return "access-after-inactive";
    case FindingKind::kFootprintDivergence: return "footprint-divergence";
    case FindingKind::kCountDivergence: return "count-divergence";
    case FindingKind::kNondeterministicAccumulation:
      return "nondeterministic-accumulation";
    case FindingKind::kFootprintVariance: return "footprint-variance";
  }
  return "unknown";
}

namespace {
const char* class_name(unsigned cls) noexcept {
  switch (cls) {
    case 0: return "global-load";
    case 1: return "global-store";
    case 2: return "shared";
    default: return "constant";
  }
}
}  // namespace

void KernelAuditor::attach(simt::Device& device) {
  device_ = &device;
  memory_ = &device.global_memory();
  device.set_audit(this);
}

void KernelAuditor::detach() {
  if (device_ != nullptr) device_->set_audit(nullptr);
  device_ = nullptr;
  memory_ = nullptr;
}

void KernelAuditor::begin_launch(std::string_view kernel, unsigned grid_blocks,
                                 unsigned block_threads, std::size_t shared_bytes) {
  (void)grid_blocks;
  kernel_.assign(kernel);
  block_threads_ = block_threads;
  shared_bytes_ = shared_bytes;
  ++launches_;
  ++launch_index_;
  const std::size_t shared_words = (shared_bytes + 3) / 4;
  if (shared_written_.size() < shared_words) shared_written_.resize(shared_words, 0);
  ++shared_stamp_;  // every block of the new launch starts unwritten
  warp_ = WarpState{};
  read_log_.clear();
}

void KernelAuditor::end_launch() {
  flush_warp();
  warp_.valid = false;
}

void KernelAuditor::ensure_site(const simt::AuditSite& site) {
  if (warp_.valid && site.block == warp_.block && site.phase == warp_.phase &&
      site.warp == warp_.warp)
    return;
  const bool new_block = !warp_.valid || site.block != warp_.block;
  const bool new_phase = new_block || site.phase != warp_.phase;
  flush_warp();
  // The engine runs audited launches serially: blocks ascending, phases
  // in order within a block.  A block transition invalidates the shared
  // write stamps (the arena is re-zeroed per block); a phase transition
  // retires the determinism read set (phases are barriers).
  if (new_block) ++shared_stamp_;
  if (new_phase) read_log_.clear();
  warp_.valid = true;
  warp_.block = site.block;
  warp_.phase = site.phase;
  warp_.warp = site.warp;
}

void KernelAuditor::flush_warp() {
  if (!warp_.valid) return;
  if (options_.synccheck) {
    // Lockstep lint: in every production loop shape (strided
    // `for (i = thread; i < n; i += block_dim)` and
    // one-element-per-thread with a trailing inactive tail), per-class
    // access counts never increase with lane index.  A lane doing MORE
    // work than a lower lane breaks the coalescing model the warp
    // grouping assumes.
    for (unsigned cls = 0; cls < kClassCount; ++cls) {
      for (unsigned lane = 1; lane < kMaxLanes; ++lane) {
        if (warp_.counts[cls][lane - 1] < warp_.counts[cls][lane]) {
          const simt::AuditSite site{warp_.block, warp_.phase, warp_.warp, lane,
                                     warp_.lane_thread[lane]};
          report(FindingKind::kCountDivergence, site, 0, {}, 0, {},
                 std::string(class_name(cls)) + " count rises from " +
                     std::to_string(warp_.counts[cls][lane - 1]) + " (lane " +
                     std::to_string(lane - 1) + ") to " +
                     std::to_string(warp_.counts[cls][lane]) + " (lane " +
                     std::to_string(lane) + ")");
          break;  // one finding per class per warp-phase
        }
      }
    }
  }
  for (auto& counts : warp_.counts) counts.fill(0);
  for (auto& fp : warp_.footprint) fp.clear();
  warp_.inactive.fill(false);
  warp_.valid = false;
}

void KernelAuditor::sync_record(unsigned cls, const simt::AuditSite& site,
                                std::size_t bytes) {
  if (!options_.synccheck || site.lane >= kMaxLanes) return;
  warp_.lane_thread[site.lane] = site.thread;
  if (warp_.inactive[site.lane])
    report(FindingKind::kAccessAfterInactive, site, 0, {}, 0, {},
           std::string(class_name(cls)) +
               " issued after the lane declared itself inactive");
  const std::uint32_t ordinal = warp_.counts[cls][site.lane]++;
  auto& fp = warp_.footprint[cls];
  if (ordinal >= fp.size()) fp.resize(ordinal + 1, 0);
  if (fp[ordinal] == 0) {
    fp[ordinal] = static_cast<std::uint32_t>(bytes);
  } else if (fp[ordinal] != bytes) {
    report(FindingKind::kFootprintDivergence, site, 0, {}, 0, {},
           std::string(class_name(cls)) + " ordinal " + std::to_string(ordinal) +
               " is " + std::to_string(bytes) + " bytes here but " +
               std::to_string(fp[ordinal]) + " bytes on an earlier lane");
  }
}

void KernelAuditor::report(FindingKind kind, const simt::AuditSite& site,
                           std::uint64_t address, std::string buffer,
                           std::size_t offset, std::string provenance,
                           std::string detail) {
  ++total_findings_;
  if (findings_.size() >= options_.max_findings) return;
  findings_.push_back({kind, kernel_, site.phase, site.block, site.warp, site.lane,
                       site.thread, address, std::move(buffer), offset,
                       std::move(provenance), std::move(detail)});
}

bool KernelAuditor::check_footprint_invariance(const simt::KernelStats& first,
                                               const simt::KernelStats& second) {
  if (first == second) return true;
  std::string detail;
  const auto field = [&](const char* name, std::uint64_t a, std::uint64_t b) {
    if (a == b) return;
    detail += (detail.empty() ? "" : ", ") + std::string(name) + " " +
              std::to_string(a) + " vs " + std::to_string(b);
  };
  field("blocks", first.blocks, second.blocks);
  field("threads", first.threads, second.threads);
  field("warps", first.warps, second.warps);
  field("complex_mul_total", first.complex_mul_total, second.complex_mul_total);
  field("complex_add_total", first.complex_add_total, second.complex_add_total);
  field("complex_mul_per_thread_max", first.complex_mul_per_thread_max,
        second.complex_mul_per_thread_max);
  field("complex_add_per_thread_max", first.complex_add_per_thread_max,
        second.complex_add_per_thread_max);
  field("global_load_requests", first.global_load_requests,
        second.global_load_requests);
  field("global_load_transactions", first.global_load_transactions,
        second.global_load_transactions);
  field("global_store_requests", first.global_store_requests,
        second.global_store_requests);
  field("global_store_transactions", first.global_store_transactions,
        second.global_store_transactions);
  field("global_bytes_loaded", first.global_bytes_loaded, second.global_bytes_loaded);
  field("global_bytes_stored", first.global_bytes_stored, second.global_bytes_stored);
  field("shared_requests", first.shared_requests, second.shared_requests);
  field("shared_cycles", first.shared_cycles, second.shared_cycles);
  field("constant_reads", first.constant_reads, second.constant_reads);
  field("inactive_lane_phases", first.inactive_lane_phases,
        second.inactive_lane_phases);
  field("race_hazards", first.race_hazards, second.race_hazards);
  field("warps_per_block", first.warps_per_block, second.warps_per_block);
  field("concurrent_blocks_per_sm", first.concurrent_blocks_per_sm,
        second.concurrent_blocks_per_sm);
  field("waves", first.waves, second.waves);
  field("warps_on_busiest_sm", first.warps_on_busiest_sm, second.warps_on_busiest_sm);
  field("shared_bytes_per_block", first.shared_bytes_per_block,
        second.shared_bytes_per_block);
  if (first.kernel != second.kernel)
    detail += (detail.empty() ? "" : ", ") + std::string("kernel ") + first.kernel +
              " vs " + second.kernel;
  ++total_findings_;
  if (findings_.size() < options_.max_findings) {
    Finding f;
    f.kind = FindingKind::kFootprintVariance;
    f.kernel = first.kernel;
    f.detail = "launch stats depend on input values: " +
               (detail.empty() ? std::string("a field not listed here differs") : detail);
    findings_.push_back(std::move(f));
  }
  return false;
}

std::string KernelAuditor::describe(const WordShadow& shadow) const {
  switch (shadow.origin) {
    case kHost:
      return "host-initialized";
    case kDevice: {
      std::string s = "device-written (launch " + std::to_string(shadow.launch) +
                      ", phase " + std::to_string(shadow.phase) + ", thread " +
                      std::to_string(shadow.thread) + ", epoch " +
                      std::to_string(shadow.epoch);
      if (shadow.epoch != epoch_)
        s += "; stale: current epoch is " + std::to_string(epoch_);
      return s + ")";
    }
    default:
      return "never written";
  }
}

std::vector<KernelAuditor::WordShadow>* KernelAuditor::shadow_of(
    std::uint64_t address, const simt::detail::Allocation** alloc_out) {
  if (address >= cached_base_ && address < cached_end_ && cached_shadow_ != nullptr) {
    *alloc_out = cached_alloc_;
    return cached_shadow_;
  }
  if (memory_ == nullptr) return nullptr;
  const simt::detail::Allocation* alloc = memory_->find(address);
  if (alloc == nullptr) return nullptr;
  auto [it, inserted] = shadows_.try_emplace(alloc->address);
  if (inserted) it->second.resize((alloc->bytes + 3) / 4);
  cached_base_ = alloc->address;
  cached_end_ = alloc->address + alloc->bytes;
  cached_shadow_ = &it->second;
  cached_alloc_ = alloc;
  *alloc_out = alloc;
  return cached_shadow_;
}

bool KernelAuditor::on_global_load(const simt::AuditSite& site, std::uint64_t address,
                                   std::size_t bytes, std::uint64_t buffer_address,
                                   std::size_t buffer_bytes) {
  ensure_site(site);
  sync_record(kClsLoad, site, bytes);
  if (options_.oob &&
      (address < buffer_address || address + bytes > buffer_address + buffer_bytes)) {
    // Name the buffer the access was issued THROUGH: the overrun address
    // itself may be unmapped or inside an unrelated neighbour.
    const simt::detail::Allocation* owner =
        memory_ != nullptr ? memory_->find(buffer_address) : nullptr;
    report(FindingKind::kGlobalOutOfBounds, site, address,
           owner != nullptr ? owner->name : "<unmapped>", address - buffer_address,
           {},
           "load of " + std::to_string(bytes) + " bytes at offset " +
               std::to_string(address - buffer_address) + " past a " +
               std::to_string(buffer_bytes) + "-byte buffer");
    return false;  // never touch host memory past the allocation
  }
  const simt::detail::Allocation* alloc = nullptr;
  auto* shadow = shadow_of(address, &alloc);
  if (shadow == nullptr || shadow->empty()) return true;
  const std::uint64_t first = (address - alloc->address) >> 2;
  const std::uint64_t last = std::min<std::uint64_t>(
      (address - alloc->address + bytes - 1) >> 2, shadow->size() - 1);
  if (options_.initcheck) {
    for (std::uint64_t w = first; w <= last; ++w) {
      const WordShadow& ws = (*shadow)[w];
      if (ws.origin == kNever) {
        report(FindingKind::kUninitGlobalRead, site, address, alloc->name,
               static_cast<std::size_t>(w) * 4, describe(ws),
               "read of a word no host transfer or kernel ever wrote");
        return false;  // the backing storage is uninitialized heap
      }
      if (ws.origin == kDevice && ws.epoch != epoch_) {
        report(FindingKind::kStaleGlobalRead, site, address, alloc->name,
               static_cast<std::size_t>(w) * 4, describe(ws),
               "read of a device-written word from a previous epoch "
               "(stale-slot bug class)");
        break;  // stale data is valid memory: allow, once per access
      }
    }
  }
  if (options_.determinism) {
    const std::uint64_t thread = global_thread(site);
    for (std::uint64_t w = first; w <= last; ++w)
      read_log_.insert(read_key((alloc->address >> 2) + w, thread));
  }
  return true;
}

bool KernelAuditor::on_global_store(const simt::AuditSite& site, std::uint64_t address,
                                    std::size_t bytes, std::uint64_t buffer_address,
                                    std::size_t buffer_bytes) {
  ensure_site(site);
  sync_record(kClsStore, site, bytes);
  if (options_.oob &&
      (address < buffer_address || address + bytes > buffer_address + buffer_bytes)) {
    const simt::detail::Allocation* owner =
        memory_ != nullptr ? memory_->find(buffer_address) : nullptr;
    report(FindingKind::kGlobalOutOfBounds, site, address,
           owner != nullptr ? owner->name : "<unmapped>", address - buffer_address,
           {},
           "store of " + std::to_string(bytes) + " bytes at offset " +
               std::to_string(address - buffer_address) + " past a " +
               std::to_string(buffer_bytes) + "-byte buffer");
    return false;
  }
  const simt::detail::Allocation* alloc = nullptr;
  auto* shadow = shadow_of(address, &alloc);
  if (shadow == nullptr || shadow->empty()) return true;
  const std::uint64_t first = (address - alloc->address) >> 2;
  const std::uint64_t last = std::min<std::uint64_t>(
      (address - alloc->address + bytes - 1) >> 2, shadow->size() - 1);
  const std::uint64_t thread = global_thread(site);
  if (options_.determinism) {
    for (std::uint64_t w = first; w <= last; ++w) {
      const WordShadow& ws = (*shadow)[w];
      // Read-modify-write accumulation: someone else wrote this word
      // earlier in the same epoch (across a phase or launch barrier),
      // and this thread read it in the current phase before storing.
      // Barriers order the accesses here, but on real hardware the
      // accumulation order across threads is not fixed -- the pattern
      // that silently breaks bitwise parity.
      if (ws.origin == kDevice && ws.epoch == epoch_ && ws.thread != thread &&
          (ws.launch != launch_index_ || ws.phase != site.phase) &&
          read_log_.count(read_key((alloc->address >> 2) + w, thread)) > 0) {
        report(FindingKind::kNondeterministicAccumulation, site, address,
               alloc->name, static_cast<std::size_t>(w) * 4, describe(ws),
               "read-modify-write of a word another thread wrote across a "
               "barrier: accumulation order is not deterministic on hardware");
        break;
      }
    }
  }
  for (std::uint64_t w = first; w <= last; ++w) {
    WordShadow& ws = (*shadow)[w];
    ws.origin = kDevice;
    ws.phase = static_cast<std::uint16_t>(site.phase);
    ws.launch = launch_index_;
    ws.epoch = epoch_;
    ws.thread = thread;
  }
  return true;
}

bool KernelAuditor::on_shared_access(const simt::AuditSite& site,
                                     std::size_t byte_offset, std::size_t bytes,
                                     bool is_write) {
  ensure_site(site);
  sync_record(kClsShared, site, bytes);
  if (options_.oob && byte_offset + bytes > shared_bytes_) {
    report(FindingKind::kSharedOutOfBounds, site, byte_offset, "<shared>",
           byte_offset, {},
           (is_write ? std::string("store") : std::string("load")) + " of " +
               std::to_string(bytes) + " bytes at offset " +
               std::to_string(byte_offset) + " past the block's " +
               std::to_string(shared_bytes_) + "-byte shared allocation");
    return false;
  }
  if (shared_written_.empty()) return true;
  const std::size_t first = byte_offset >> 2;
  const std::size_t last =
      std::min((byte_offset + bytes - 1) >> 2, shared_written_.size() - 1);
  if (first > last) return true;
  if (is_write) {
    for (std::size_t w = first; w <= last; ++w) shared_written_[w] = shared_stamp_;
  } else if (options_.initcheck) {
    for (std::size_t w = first; w <= last; ++w) {
      if (shared_written_[w] != shared_stamp_) {
        report(FindingKind::kUninitSharedRead, site, byte_offset, "<shared>",
               byte_offset, "not written in this block",
               "read of a shared word before any thread of the block wrote "
               "it (shared memory is uninitialized on real hardware)");
        break;  // the simulator zeroes the arena, so reading is defined
      }
    }
  }
  return true;
}

bool KernelAuditor::on_constant_load(const simt::AuditSite& site,
                                     std::string_view buffer, std::size_t byte_offset,
                                     std::size_t bytes, std::size_t buffer_bytes) {
  ensure_site(site);
  sync_record(kClsConst, site, bytes);
  if (options_.oob && byte_offset + bytes > buffer_bytes) {
    report(FindingKind::kConstantOutOfBounds, site, byte_offset, std::string(buffer),
           byte_offset, {},
           "load of " + std::to_string(bytes) + " bytes at offset " +
               std::to_string(byte_offset) + " past a " +
               std::to_string(buffer_bytes) + "-byte constant buffer");
    return false;
  }
  return true;
}

void KernelAuditor::on_inactive(const simt::AuditSite& site) {
  ensure_site(site);
  if (site.lane >= kMaxLanes) return;
  warp_.inactive[site.lane] = true;
  warp_.lane_thread[site.lane] = site.thread;
}

void KernelAuditor::on_host_write(std::uint64_t address, std::size_t bytes) {
  if (bytes == 0) return;
  const simt::detail::Allocation* alloc = nullptr;
  auto* shadow = shadow_of(address, &alloc);
  if (shadow == nullptr || shadow->empty()) return;
  const std::uint64_t first = (address - alloc->address) >> 2;
  const std::uint64_t last =
      std::min<std::uint64_t>((address - alloc->address + bytes - 1) >> 2,
                              shadow->size() - 1);
  for (std::uint64_t w = first; w <= last; ++w) {
    WordShadow& ws = (*shadow)[w];
    ws.origin = kHost;  // durable: host initialization survives epochs
  }
}

void KernelAuditor::on_memory_reset() {
  shadows_.clear();
  cached_base_ = cached_end_ = 0;
  cached_shadow_ = nullptr;
  cached_alloc_ = nullptr;
}

}  // namespace polyeval::audit
