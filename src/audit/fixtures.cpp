#include "audit/fixtures.hpp"

#include "simt/device.hpp"

namespace polyeval::audit::fixtures {

void run_stale_slot(KernelAuditor& auditor, simt::Device& device) {
  // A miniature multi-tenant slot: mons[0] is the value word, mons[1..n]
  // the derivative words, zero-filled once at "construction".  Each
  // tenant's kernel writes only its own sparse support and then reads
  // the whole slot -- the exact shape that shipped the cross-tenant
  // Jacobian contamination before the per-launch re-zero was added.
  constexpr unsigned n = 2;
  auto mons = device.alloc_global<double>(1 + n, "FxMons");
  auto out = device.alloc_global<double>(1 + n, "FxOut");
  device.fill(mons, 0.0);  // construction-time zero fill: host provenance
  device.fill(out, 0.0);

  const auto make_tenant = [&](unsigned support) {
    simt::Kernel k;
    k.name = "fx_stale_slot";
    k.phases.push_back([mons, support](simt::ThreadContext& ctx) {
      ctx.store(mons, 0, 3.0);            // the value word
      ctx.store(mons, 1 + support, 2.0);  // this tenant's only derivative
    });
    k.phases.push_back([mons, out](simt::ThreadContext& ctx) {
      for (std::size_t q = 0; q < 1 + n; ++q) ctx.store(out, q, ctx.load(mons, q));
    });
    return k;
  };

  simt::LaunchConfig cfg;
  cfg.grid_blocks = 1;
  cfg.block_threads = 1;
  auditor.begin_epoch();
  (void)device.launch(make_tenant(0), cfg);  // tenant A: clean
  auditor.begin_epoch();
  (void)device.launch(make_tenant(1), cfg);  // tenant B: reads A's stale word
}

void run_uninit_read(KernelAuditor& auditor, simt::Device& device) {
  auto never_written = device.alloc_global<double>(4, "FxNever");  // no fill
  auto out = device.alloc_global<double>(4, "FxUninitOut");
  device.fill(out, 0.0);

  simt::Kernel k;
  k.name = "fx_uninit_read";
  k.phases.push_back([never_written, out](simt::ThreadContext& ctx) {
    ctx.store(out, 0, ctx.load(never_written, 2));  // squashed to 0.0
    auto tile = ctx.shared_array<double>(0, 4);
    ctx.store(out, 1, tile.get(2));  // shared word nobody wrote this block
  });

  simt::LaunchConfig cfg;
  cfg.grid_blocks = 1;
  cfg.block_threads = 1;
  cfg.shared_bytes = 4 * sizeof(double);
  auditor.begin_epoch();
  (void)device.launch(k, cfg);
}

void run_out_of_bounds(KernelAuditor& auditor, simt::Device& device) {
  auto small = device.alloc_global<double>(4, "FxSmall");
  device.fill(small, 1.0);

  simt::Kernel k;
  k.name = "fx_oob";
  k.phases.push_back([small](simt::ThreadContext& ctx) {
    // Both past the 32-byte extent; the squash is what keeps these off
    // the allocation's (unpadded) backing storage.
    ctx.store(small, 6, 9.0);
    (void)ctx.load(small, 5);
  });

  simt::LaunchConfig cfg;
  cfg.grid_blocks = 1;
  cfg.block_threads = 1;
  auditor.begin_epoch();
  (void)device.launch(k, cfg);
}

void run_lane_divergence(KernelAuditor& auditor, simt::Device& device) {
  auto wide = device.alloc_global<double>(8, "FxWide");
  auto narrow = device.alloc_global<float>(8, "FxNarrow");
  device.fill(wide, 1.0);
  device.fill(narrow, 1.0f);

  simt::Kernel k;
  k.name = "fx_diverge";
  k.phases.push_back([wide, narrow](simt::ThreadContext& ctx) {
    switch (ctx.thread_index()) {
      case 0:
        (void)ctx.load(wide, 0);
        ctx.mark_inactive();
        (void)ctx.load(wide, 1);  // access after declaring inactive
        break;
      case 1:
        (void)ctx.load(narrow, 0);  // 4 bytes where lane 0 loaded 8
        break;
      case 2:
        (void)ctx.load(wide, 2);  // two loads where lane 1 made one
        (void)ctx.load(wide, 3);
        break;
      default:
        ctx.mark_inactive();
        break;
    }
  });

  simt::LaunchConfig cfg;
  cfg.grid_blocks = 1;
  cfg.block_threads = 4;
  auditor.begin_epoch();
  (void)device.launch(k, cfg);
}

void run_nondeterministic_accumulation(KernelAuditor& auditor,
                                       simt::Device& device) {
  auto acc = device.alloc_global<double>(1, "FxAcc");
  device.fill(acc, 0.0);

  simt::Kernel k;
  k.name = "fx_ndet_accum";
  // Block 0 seeds the accumulator in phase 0; block 1 folds its
  // contribution in phase 1 by read-modify-write.  The phase barrier
  // orders the simulator's accesses, but real hardware does not fix
  // the accumulation order across blocks.
  k.phases.push_back([acc](simt::ThreadContext& ctx) {
    if (ctx.block_index() == 0)
      ctx.store(acc, 0, 1.0);
    else
      ctx.mark_inactive();
  });
  k.phases.push_back([acc](simt::ThreadContext& ctx) {
    if (ctx.block_index() == 1)
      ctx.store(acc, 0, ctx.load(acc, 0) + 1.0);
    else
      ctx.mark_inactive();
  });

  simt::LaunchConfig cfg;
  cfg.grid_blocks = 2;
  cfg.block_threads = 1;
  // The launch-wide race journal conservatively flags any cross-thread
  // double write; disable it so the lint (a finding, not a throw) is
  // what diagnoses the pattern.
  cfg.detect_races = false;
  auditor.begin_epoch();
  (void)device.launch(k, cfg);
}

void run_footprint_variance(KernelAuditor& auditor, simt::Device& device) {
  constexpr unsigned kThreads = 32, kMaxStride = 16;
  auto input = device.alloc_global<unsigned>(1, "FxStride");
  auto table = device.alloc_global<double>(kThreads * kMaxStride, "FxTable");
  auto out = device.alloc_global<double>(kThreads, "FxGathered");
  device.fill(table, 1.0);
  device.fill(out, 0.0);

  simt::Kernel k;
  k.name = "fx_data_index";
  k.phases.push_back([input, table, out](simt::ThreadContext& ctx) {
    const unsigned stride = ctx.load(input, 0);
    ctx.store(out, ctx.thread_index(), ctx.load(table, ctx.thread_index() * stride));
  });
  k.memo.enable(0);

  simt::LaunchConfig cfg;
  cfg.grid_blocks = 1;
  cfg.block_threads = kThreads;
  simt::KernelStats stats[2];
  const unsigned strides[2] = {1, kMaxStride};
  for (unsigned run = 0; run < 2; ++run) {
    device.upload(input, std::span<const unsigned>(&strides[run], 1));
    auditor.begin_epoch();
    stats[run] = device.launch(k, cfg);
  }
  (void)auditor.check_footprint_invariance(stats[0], stats[1]);
}

}  // namespace polyeval::audit::fixtures
