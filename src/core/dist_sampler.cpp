#include "src/core/dist_sampler.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "src/core/dist_engine.hpp"
#include "src/dense/gemm.hpp"
#include "src/dense/ops.hpp"
#include "src/sparse/spmm_kernel.hpp"
#include "src/util/error.hpp"

namespace cagnet {

namespace dist {

void SampledRunner::check(const GnnConfig& config, const RunConfig& run) {
  const Index layers = config.num_layers();
  CAGNET_CHECK(static_cast<Index>(run.sample_fanouts.size()) == layers,
               "sampled training: fanouts length (" +
                   std::to_string(run.sample_fanouts.size()) +
                   ") must equal the model's layer count (" +
                   std::to_string(layers) + ")");
  // The next batch's layer-0 exchange stays posted across this batch's
  // backward, which posts at most one contribution exchange per layer
  // (none for layer 1) on the same communicator. A channel is reused only
  // after every rank finished its previous generation, so at 16 layers a
  // post could land on the exchange's own channel: a ContractViolation
  // mid-batch, after which the engine's teardown quiesce would hang on
  // that same exchange.
  CAGNET_CHECK(layers < detail::kAsyncChannels,
               "sampled training: at most " +
                   std::to_string(detail::kAsyncChannels - 1) +
                   " layers (the prefetched exchange must fit the "
                   "communicator's channel ring)");
}

SampledRunner::SampledRunner(const DistProblem& problem,
                             const GnnConfig& config,
                             DistSpmmAlgebra& algebra, Comm& comm)
    : problem_(problem), config_(config), algebra_(algebra), comm_(comm),
      machine_(algebra.machine()) {
  const Index layers = config_.num_layers();
  check(config_, algebra_.run());
  options_.fanouts = algebra_.run().sample_fanouts;
  options_.batch_size = algebra_.run().sample_batch;

  const int p = comm_.size();
  row_lo_ = algebra_.row_lo();
  row_hi_ = algebra_.row_hi();
  row_starts_ = row_starts(problem_, p);

  const std::vector<Index>& labels = problem_.graph->labels;
  for (Index v = row_lo_; v < row_hi_; ++v) {
    if (labels[static_cast<std::size_t>(v)] >= 0) labeled_.push_back(v);
  }

  // Lockstep batch count: the busiest rank paces the epoch; short ranks
  // run empty trailing batches so every collective stays in order.
  const Index local_batches =
      (static_cast<Index>(labeled_.size()) + options_.batch_size - 1) /
      options_.batch_size;
  std::array<double, 1> most = {static_cast<double>(local_batches)};
  comm_.allreduce_max(std::span<double>(most), CommCategory::kControl);
  batches_ = static_cast<Index>(most[0]);

  const Index n = problem_.graph->num_vertices();
  pos_.resize(static_cast<std::size_t>(n));
  stamp_.assign(static_cast<std::size_t>(n), 0);
  blk_nnz_.resize(static_cast<std::size_t>(p));
  curs_.resize(static_cast<std::size_t>(p));
  for (Slot& slot : slots_) {
    slot.levels.resize(static_cast<std::size_t>(layers) + 1);
    slot.exch.resize(static_cast<std::size_t>(layers));
    for (Exchange& e : slot.exch) {
      e.plan.ready = true;
      e.plan.codec = algebra_.run().compress;
      e.plan.recv_row_offsets.assign(static_cast<std::size_t>(p) + 1, 0);
      e.plan.send_row_offsets.assign(static_cast<std::size_t>(p) + 1, 0);
      e.plan.blocks.resize(static_cast<std::size_t>(p));
      e.tblocks.resize(static_cast<std::size_t>(p));
    }
  }
}

void SampledRunner::build_batch(Slot& slot, int epoch, Index batch,
                                const Matrix& features_block,
                                EpochStats& stats) {
  const int p = comm_.size();
  const int rank = comm_.rank();
  const Index layers = config_.num_layers();
  const Csr& at = problem_.at;

  // Seeds: this rank's slice of the per-epoch shuffle, re-sorted
  // ascending so every downstream ordering (loss terms, landing rows,
  // accumulation) matches the full-batch row order.
  auto& seeds = slot.levels[static_cast<std::size_t>(layers)].targets;
  seeds.clear();
  const std::size_t lo = static_cast<std::size_t>(batch) *
                         static_cast<std::size_t>(options_.batch_size);
  const std::size_t hi =
      std::min(lo + static_cast<std::size_t>(options_.batch_size),
               shuffled_.size());
  for (std::size_t i = lo; i < hi && lo < shuffled_.size(); ++i) {
    seeds.push_back(shuffled_[i]);
  }
  std::sort(seeds.begin(), seeds.end());

  // The whole build is serial per rank (plus collectives), so the sampled
  // structure is bitwise identical at any thread count; the stream is
  // keyed by (seed, epoch, batch, rank), so it is independent of pipeline
  // order and of restarts.
  Rng rng = Rng(options_.seed)
                .split(2)
                .split(static_cast<std::uint64_t>(epoch) + 1)
                .split(static_cast<std::uint64_t>(batch) + 1)
                .split(static_cast<std::uint64_t>(rank) + 1);

  for (Index k = layers - 1; k >= 0; --k) {
    // Hop h = layers-1-k outward from the seeds uses fanouts[h].
    const Index fanout =
        options_.fanouts[static_cast<std::size_t>(layers - 1 - k)];
    const auto& up_targets =
        slot.levels[static_cast<std::size_t>(k) + 1].targets;
    Exchange& e = slot.exch[static_cast<std::size_t>(k)];

    // ---- Fan-out sample the local A^T stripe rows of the upper targets.
    // Floyd's algorithm draws `fanout` distinct positions without
    // replacement; positions are re-sorted so each row's sampled columns
    // stay ascending (the full-batch accumulation order).
    e.samp_row_ptr.clear();
    e.samp_row_ptr.push_back(0);
    e.samp_cols.clear();
    e.samp_vals.clear();
    for (Index i : up_targets) {
      const Index r0 = at.row_ptr()[static_cast<std::size_t>(i)];
      const Index r1 = at.row_ptr()[static_cast<std::size_t>(i) + 1];
      const Index deg = r1 - r0;
      if (deg <= fanout) {
        for (Index q = r0; q < r1; ++q) {
          e.samp_cols.push_back(at.col_idx()[static_cast<std::size_t>(q)]);
          e.samp_vals.push_back(at.values()[static_cast<std::size_t>(q)]);
        }
      } else {
        picked_.clear();
        for (Index r = deg - fanout; r < deg; ++r) {
          Index cand = static_cast<Index>(
              rng.next_below(static_cast<std::uint64_t>(r) + 1));
          if (std::find(picked_.begin(), picked_.end(), cand) !=
              picked_.end()) {
            cand = r;
          }
          picked_.push_back(cand);
        }
        std::sort(picked_.begin(), picked_.end());
        // Horvitz-Thompson correction: each kept edge stood a
        // fanout/deg chance of inclusion, so dividing by it keeps the
        // sampled row aggregate an unbiased estimate of the full one.
        // Without it every capped hop shrinks the signal by ~fanout/deg
        // and deep models stop training. Take-all rows above scale by
        // exactly one, which is what keeps uncapped runs bitwise equal
        // to full-batch.
        const Real scale =
            static_cast<Real>(deg) / static_cast<Real>(fanout);
        for (Index posn : picked_) {
          const Index q = r0 + posn;
          e.samp_cols.push_back(at.col_idx()[static_cast<std::size_t>(q)]);
          e.samp_vals.push_back(
              at.values()[static_cast<std::size_t>(q)] * scale);
        }
      }
      e.samp_row_ptr.push_back(static_cast<Index>(e.samp_cols.size()));
    }

    // ---- Dedup the sampled columns and partition them by owner.
    // Sorting makes the per-owner runs contiguous (ownership ranges are
    // ascending), so the need lists come out ascending per peer.
    ++cur_stamp_;
    needs_.clear();
    for (Index g : e.samp_cols) {
      auto& s = stamp_[static_cast<std::size_t>(g)];
      if (s != cur_stamp_) {
        s = cur_stamp_;
        needs_.push_back(g);
      }
    }
    std::sort(needs_.begin(), needs_.end());

    HaloPlan& plan = e.plan;
    plan.need_rows.clear();
    std::size_t cursor = 0;
    std::size_t self_lo = 0;
    std::size_t self_hi = 0;
    for (int j = 0; j < p; ++j) {
      const Index bound = row_starts_[static_cast<std::size_t>(j) + 1];
      std::size_t end = cursor;
      while (end < needs_.size() && needs_[end] < bound) ++end;
      if (j == rank) {
        // Own rows are never requested over the wire; they are simply
        // part of F_k below.
        self_lo = cursor;
        self_hi = end;
      } else {
        for (std::size_t q = cursor; q < end; ++q) {
          plan.need_rows.push_back(needs_[q] -
                                   row_starts_[static_cast<std::size_t>(j)]);
        }
      }
      plan.recv_row_offsets[static_cast<std::size_t>(j) + 1] =
          plan.need_rows.size();
      cursor = end;
    }

    // ---- Learn which of this rank's rows each peer sampled (the send
    // side), and close F_k as local-needs ∪ received-requests.
    comm_.alltoallv_into(std::span<const Index>(plan.need_rows),
                         std::span<const std::size_t>(plan.recv_row_offsets),
                         requested_, CommCategory::kControl);

    auto& targets = slot.levels[static_cast<std::size_t>(k)].targets;
    targets.clear();
    for (std::size_t q = self_lo; q < self_hi; ++q) {
      targets.push_back(needs_[q]);
    }
    for (Index local : requested_.data) {
      CAGNET_CHECK(local >= 0 && local < row_hi_ - row_lo_,
                   "sampled training: peer requested an out-of-range row");
      targets.push_back(row_lo_ + local);
    }
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()),
                  targets.end());

    // ---- Compact positions: own rows index F_k, remote rows index the
    // peer's recv chunk (ownership is disjoint, so one map serves both).
    for (std::size_t i = 0; i < targets.size(); ++i) {
      pos_[static_cast<std::size_t>(targets[i])] = static_cast<Index>(i);
    }
    for (int j = 0; j < p; ++j) {
      const std::size_t c0 = plan.recv_row_offsets[static_cast<std::size_t>(j)];
      const std::size_t c1 =
          plan.recv_row_offsets[static_cast<std::size_t>(j) + 1];
      for (std::size_t q = c0; q < c1; ++q) {
        pos_[static_cast<std::size_t>(
            plan.need_rows[q] + row_starts_[static_cast<std::size_t>(j)])] =
            static_cast<Index>(q - c0);
      }
    }

    plan.send_rows.clear();
    for (std::size_t j = 0; j <= static_cast<std::size_t>(p); ++j) {
      plan.send_row_offsets[j] = requested_.offsets[j];
    }
    for (Index local : requested_.data) {
      plan.send_rows.push_back(pos_[static_cast<std::size_t>(row_lo_ + local)]);
    }

    // ---- Owner-compacted forward blocks: block j holds the sampled
    // entries whose column peer j owns, re-indexed into j's recv chunk
    // (the self block into F_k). Entry order is (row-major, ascending
    // column) — CSR order — so a single cursor pass fills each block.
    const auto n_up = static_cast<Index>(up_targets.size());
    const auto nnz = static_cast<Index>(e.samp_cols.size());
    owners_.resize(static_cast<std::size_t>(nnz));
    std::fill(blk_nnz_.begin(), blk_nnz_.end(), Index{0});
    for (Index q = 0; q < nnz; ++q) {
      const Index g = e.samp_cols[static_cast<std::size_t>(q)];
      const int owner = static_cast<int>(
          std::upper_bound(row_starts_.begin() + 1, row_starts_.end(), g) -
          (row_starts_.begin() + 1));
      owners_[static_cast<std::size_t>(q)] = owner;
      ++blk_nnz_[static_cast<std::size_t>(owner)];
    }
    for (int j = 0; j < p; ++j) {
      const Index width =
          j == rank
              ? static_cast<Index>(targets.size())
              : static_cast<Index>(
                    plan.recv_row_offsets[static_cast<std::size_t>(j) + 1] -
                    plan.recv_row_offsets[static_cast<std::size_t>(j)]);
      Csr& blk = plan.blocks[static_cast<std::size_t>(j)];
      blk.resize_parts(n_up, width, blk_nnz_[static_cast<std::size_t>(j)]);
      std::fill(blk.row_ptr_mut().begin(), blk.row_ptr_mut().end(),
                Index{0});
    }
    for (Index r = 0; r < n_up; ++r) {
      for (Index q = e.samp_row_ptr[static_cast<std::size_t>(r)];
           q < e.samp_row_ptr[static_cast<std::size_t>(r) + 1]; ++q) {
        const int owner = owners_[static_cast<std::size_t>(q)];
        ++plan.blocks[static_cast<std::size_t>(owner)]
              .row_ptr_mut()[static_cast<std::size_t>(r) + 1];
      }
    }
    for (int j = 0; j < p; ++j) {
      const std::span<Index> rp =
          plan.blocks[static_cast<std::size_t>(j)].row_ptr_mut();
      for (Index r = 0; r < n_up; ++r) {
        rp[static_cast<std::size_t>(r) + 1] += rp[static_cast<std::size_t>(r)];
      }
    }
    std::fill(curs_.begin(), curs_.end(), Index{0});
    for (Index q = 0; q < nnz; ++q) {
      const int owner = owners_[static_cast<std::size_t>(q)];
      Csr& blk = plan.blocks[static_cast<std::size_t>(owner)];
      const Index w = curs_[static_cast<std::size_t>(owner)]++;
      blk.col_idx_mut()[static_cast<std::size_t>(w)] =
          pos_[static_cast<std::size_t>(e.samp_cols[static_cast<std::size_t>(q)])];
      blk.values()[static_cast<std::size_t>(w)] =
          e.samp_vals[static_cast<std::size_t>(q)];
    }

    // Backward operators and landing bookkeeping. Layer 1's backward
    // sends no contributions (its weight gradient is (T^1)^T G^1), so
    // exchange 0 needs none.
    if (k == 0) continue;
    for (int j = 0; j < p; ++j) {
      plan.blocks[static_cast<std::size_t>(j)].transposed_into(
          e.tblocks[static_cast<std::size_t>(j)], tscratch_);
    }
    e.recv_total = plan.recv_row_offsets[static_cast<std::size_t>(p)];
    e.pack_identity.resize(e.recv_total);
    for (std::size_t q = 0; q < e.recv_total; ++q) {
      e.pack_identity[q] = static_cast<Index>(q);
    }
  }

  // ---- Compact features and post the level-0 exchange: the ialltoallv
  // flies behind the current batch's backward + step and is drained
  // inside the next forward's first-layer sweep.
  Level& l0 = slot.levels[0];
  {
    ScopedPhase scope(stats.profiler, Phase::kHaloPack);
    const Index f0 = config_.dims.front();
    l0.h.resize(static_cast<Index>(l0.targets.size()), f0);
    for (std::size_t r = 0; r < l0.targets.size(); ++r) {
      const auto src = features_block.row(l0.targets[r] - row_lo_);
      std::copy(src.begin(), src.end(),
                l0.h.row(static_cast<Index>(r)).begin());
    }
  }
  HaloPlan& plan0 = slot.exch[0].plan;
  slot.h0_op = halo_exchange_begin(
      l0.h, std::span<const Index>(plan0.send_rows),
      std::span<const std::size_t>(plan0.send_row_offsets), comm_, plan0,
      CommCategory::kHalo, stats.profiler);
}

void SampledRunner::forward_batch(Slot& slot,
                                  const std::vector<Matrix>& weights,
                                  EpochStats& stats) {
  const int rank = comm_.rank();
  const Index layers = config_.num_layers();

  for (Index k = 1; k <= layers; ++k) {
    Exchange& e = slot.exch[static_cast<std::size_t>(k) - 1];
    Level& dn = slot.levels[static_cast<std::size_t>(k) - 1];
    Level& up = slot.levels[static_cast<std::size_t>(k)];
    const Index f_in = config_.dims[static_cast<std::size_t>(k) - 1];
    const Index f_out = config_.dims[static_cast<std::size_t>(k)];
    const auto n_up = static_cast<Index>(up.targets.size());

    // Layer 1 drains the exchange build_batch posted a phase earlier;
    // deeper layers begin theirs inline on the just-computed activations.
    if (k > 1) {
      slot.h0_op = halo_exchange_begin(
          dn.h, std::span<const Index>(e.plan.send_rows),
          std::span<const std::size_t>(e.plan.send_row_offsets), comm_,
          e.plan, CommCategory::kHalo, stats.profiler);
    }
    // Layer 1's aggregate stays in t1_buf_ for the backward's Y^1.
    Matrix& t = k == 1 ? t1_buf_ : t_buf_;
    t.resize(n_up, f_in);
    t.set_zero();
    halo_spmm_sweep(slot.h0_op, dn.h,
                    &e.plan.blocks[static_cast<std::size_t>(rank)], rank,
                    comm_, e.plan, machine_, stats, t);

    ScopedPhase scope(stats.profiler, Phase::kMisc);
    up.z.resize(n_up, f_out);
    gemm(Trans::kNo, Trans::kNo, Real{1}, t,
         weights[static_cast<std::size_t>(k) - 1], Real{0}, up.z);
    stats.work.add_gemm(machine_, 2.0 * static_cast<double>(n_up) *
                                      static_cast<double>(f_in) *
                                      static_cast<double>(f_out));
    up.h.resize(n_up, f_out);
    if (k == layers) {
      log_softmax_rows(up.z, up.h);
    } else {
      relu(up.z, up.h);
    }
  }
}

std::array<double, 3> SampledRunner::reduce_batch_loss(Slot& slot,
                                                       EpochStats& stats) {
  const Index layers = config_.num_layers();
  const Level& top = slot.levels[static_cast<std::size_t>(layers)];
  const std::vector<Index>& labels = problem_.graph->labels;

  double loss_sum = 0;
  double hits = 0;
  {
    ScopedPhase scope(stats.profiler, Phase::kMisc);
    for (std::size_t r = 0; r < top.targets.size(); ++r) {
      const Index label = labels[static_cast<std::size_t>(top.targets[r])];
      loss_sum -= top.h(static_cast<Index>(r), label);
      const auto row = top.h.row(static_cast<Index>(r));
      const Index pred = static_cast<Index>(
          std::max_element(row.begin(), row.end()) - row.begin());
      if (pred == label) hits += 1;
    }
  }
  // Blocking double[3] reduce: elements 0/1 sum in the same rank-ascending
  // order as the full-batch double[2] reduce, so a seeds-everything batch
  // reproduces its loss bitwise; element 2 carries the global seed count
  // (the gradient scale, known only after the shuffle).
  std::array<double, 3> acc = {loss_sum, hits,
                               static_cast<double>(top.targets.size())};
  comm_.allreduce_sum(std::span<double>(acc), CommCategory::kControl);
  return acc;
}

void SampledRunner::backward_batch(Slot& slot,
                                   const std::vector<Matrix>& weights,
                                   std::vector<Matrix>& gradients,
                                   double global_seeds, EpochStats& stats) {
  const int p = comm_.size();
  const int rank = comm_.rank();
  const Index layers = config_.num_layers();
  const std::vector<Index>& labels = problem_.graph->labels;

  // G^L over the seed rows: every seed is labeled, and the scale is the
  // global batch size (mean NLL over the batch), so an all-seeds batch
  // reproduces the full-batch scale -1/labeled_count exactly.
  const Level& top = slot.levels[static_cast<std::size_t>(layers)];
  const Index f_last = config_.dims.back();
  g_buf_.resize(static_cast<Index>(top.targets.size()), f_last);
  {
    ScopedPhase scope(stats.profiler, Phase::kMisc);
    const Real scale =
        global_seeds > 0 ? Real{-1} / static_cast<Real>(global_seeds)
                         : Real{0};
    for (Index r = 0; r < g_buf_.rows(); ++r) {
      const Index label =
          labels[static_cast<std::size_t>(top.targets[static_cast<std::size_t>(r)])];
      for (Index c = 0; c < f_last; ++c) {
        g_buf_(r, c) = -std::exp(top.h(r, c)) * scale;
      }
      g_buf_(r, label) += scale;
    }
  }

  for (Index k = layers; k >= 2; --k) {
    Exchange& e = slot.exch[static_cast<std::size_t>(k) - 1];
    Level& dn = slot.levels[static_cast<std::size_t>(k) - 1];
    const Index f_in = config_.dims[static_cast<std::size_t>(k) - 1];
    const Index f_out = config_.dims[static_cast<std::size_t>(k)];
    const auto n_dn = static_cast<Index>(dn.targets.size());
    const auto recv_total = static_cast<Index>(e.recv_total);

    // Stacked contribution rows: [0, recv_total) owed to peers (in recv
    // order), then this rank's own F_{k-1} rows. accumulate=false
    // zero-fills each transposed block's rows, and the chunks are
    // disjoint, so every row is written exactly once.
    {
      ScopedPhase scope(stats.profiler, Phase::kSpmm);
      e.partial.resize(recv_total + n_dn, f_out);
      for (int j = 0; j < p; ++j) {
        const Csr& tb = e.tblocks[static_cast<std::size_t>(j)];
        if (tb.rows() == 0) continue;
        const Index row0 =
            j == rank
                ? recv_total
                : static_cast<Index>(
                      e.plan.recv_row_offsets[static_cast<std::size_t>(j)]);
        spmm_csr_kernel<Real>(tb.rows(), tb.row_ptr().data(),
                              tb.col_idx().data(), tb.values().data(),
                              g_buf_.data(), f_out,
                              e.partial.data() + row0 * f_out,
                              /*accumulate=*/false);
        stats.work.add_spmm(machine_, static_cast<double>(tb.nnz()),
                            static_cast<double>(f_out), block_degree(tb));
      }
    }

    // Contributions travel back along the forward plan's mirror: packed
    // in recv order, landing scatter-add on the compact send positions.
    u_buf_.resize(n_dn, f_out);
    halo_exchange_contributions(
        e.partial, std::span<const Index>(e.pack_identity),
        std::span<const std::size_t>(e.plan.recv_row_offsets),
        /*self_partial=*/true, recv_total,
        std::span<const Index>(e.plan.send_rows),
        std::span<const std::size_t>(e.plan.send_row_offsets), rank, comm_,
        e.plan, CommCategory::kHalo, machine_, stats, u_buf_);

    // Y^k = (H^(k-1))^T U over the compact rows; the replicated reduction
    // is the algebra's own (deferred, so it flies behind the remaining
    // layers — same discipline as full-batch).
    {
      ScopedPhase scope(stats.profiler, Phase::kMisc);
      y_buf_.resize(f_in, f_out);
      gemm(Trans::kYes, Trans::kNo, Real{1}, dn.h, u_buf_, Real{0}, y_buf_);
      stats.work.add_gemm(machine_, 2.0 * static_cast<double>(n_dn) *
                                        static_cast<double>(f_in) *
                                        static_cast<double>(f_out));
    }
    algebra_.begin_reduce_gradients(
        y_buf_, f_in, f_out, gradients[static_cast<std::size_t>(k) - 1],
        stats);

    ScopedPhase scope(stats.profiler, Phase::kMisc);
    dh_buf_.resize(n_dn, f_in);
    gemm(Trans::kNo, Trans::kYes, Real{1}, u_buf_,
         weights[static_cast<std::size_t>(k) - 1], Real{0}, dh_buf_);
    stats.work.add_gemm(machine_, 2.0 * static_cast<double>(n_dn) *
                                      static_cast<double>(f_in) *
                                      static_cast<double>(f_out));
    g_next_.resize(n_dn, f_in);
    relu_backward(dh_buf_, dn.z, g_next_);
    std::swap(g_buf_, g_next_);
  }

  // Y^1 = (H^0)^T (A G^1) = (T^1)^T G^1 over the |F_1| rows: the
  // full-batch formula, with no SpMM and no contribution exchange.
  const Index f0 = config_.dims[0];
  const Index f1 = config_.dims[1];
  {
    ScopedPhase scope(stats.profiler, Phase::kMisc);
    y_buf_.resize(f0, f1);
    gemm(Trans::kYes, Trans::kNo, Real{1}, t1_buf_, g_buf_, Real{0}, y_buf_);
    stats.work.add_gemm(machine_, 2.0 * static_cast<double>(g_buf_.rows()) *
                                      static_cast<double>(f0) *
                                      static_cast<double>(f1));
  }
  algebra_.begin_reduce_gradients(y_buf_, f0, f1, gradients[0], stats);
  algebra_.finish_gradients(stats);
}

EpochResult SampledRunner::run_epoch(int epoch, const Matrix& features_block,
                                     std::vector<Matrix>& weights,
                                     std::vector<Matrix>& gradients,
                                     Optimizer& optimizer,
                                     EpochStats& stats) {
  EpochResult result;
  if (batches_ == 0) return result;  // nothing labeled anywhere

  // Per-epoch shuffle of this rank's labeled rows (Fisher–Yates on a
  // (seed, epoch, rank)-keyed stream: restart-deterministic, and
  // independent of every other rank's stream).
  shuffled_ = labeled_;
  Rng rng = Rng(options_.seed)
                .split(1)
                .split(static_cast<std::uint64_t>(epoch) + 1)
                .split(static_cast<std::uint64_t>(comm_.rank()) + 1);
  for (std::size_t i = shuffled_.size(); i > 1; --i) {
    const std::size_t j =
        static_cast<std::size_t>(rng.next_below(static_cast<std::uint64_t>(i)));
    std::swap(shuffled_[i - 1], shuffled_[j]);
  }

  double loss_acc = 0;
  double hits_acc = 0;
  int s = 0;
  build_batch(slots_[static_cast<std::size_t>(s)], epoch, 0, features_block,
              stats);
  for (Index b = 0; b < batches_; ++b) {
    Slot& cur = slots_[static_cast<std::size_t>(s)];
    forward_batch(cur, weights, stats);
    const std::array<double, 3> acc = reduce_batch_loss(cur, stats);
    if (b + 1 < batches_) {
      // Pipeline: the next batch's sample/pack/exchange runs here so its
      // posted feature exchange is in flight behind this batch's whole
      // backward and step.
      build_batch(slots_[static_cast<std::size_t>(1 - s)], epoch, b + 1,
                  features_block, stats);
    }
    backward_batch(cur, weights, gradients, acc[2], stats);
    {
      ScopedPhase scope(stats.profiler, Phase::kMisc);
      optimizer.step(weights, gradients);
    }
    if (acc[2] > 0) loss_acc += acc[0] / acc[2];
    hits_acc += acc[1];
    s = 1 - s;
  }

  result.loss = loss_acc / static_cast<double>(batches_);
  result.accuracy = problem_.labeled_count > 0
                        ? hits_acc / static_cast<double>(problem_.labeled_count)
                        : 0.0;
  return result;
}

}  // namespace dist

}  // namespace cagnet
