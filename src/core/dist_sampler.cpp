#include "src/core/dist_sampler.hpp"

#include <algorithm>
#include <array>
#include <string>
#include <utility>

#include "src/sparse/spmm_kernel.hpp"
#include "src/util/error.hpp"

namespace cagnet {

namespace dist {

namespace {

/// Root of the shuffle stream (seed, 1, epoch, rank) and of the sampling
/// stream (seed, 2, epoch, batch, rank).
constexpr std::uint64_t kSampleSeed = 99;

}  // namespace

void SampledRunner::check(const GnnConfig& config, const RunConfig& run) {
  const Index layers = config.num_layers();
  CAGNET_CHECK(static_cast<Index>(run.sample_fanouts.size()) == layers,
               "sampled training: fanouts length (" +
                   std::to_string(run.sample_fanouts.size()) +
                   ") must equal the model's layer count (" +
                   std::to_string(layers) + ")");
}

SampledRunner::SampledRunner(const DistProblem& problem,
                             const GnnConfig& config,
                             DistSpmmAlgebra& algebra, Comm& comm)
    : problem_(problem), config_(config), algebra_(algebra), comm_(comm) {
  const Index layers = config_.num_layers();
  check(config_, algebra_.run());
  const Index batch_size = algebra_.run().sample_batch;

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
      (static_cast<Index>(labeled_.size()) + batch_size - 1) / batch_size;
  std::array<double, 1> most = {static_cast<double>(local_batches)};
  comm_.allreduce_max(std::span<double>(most), CommCategory::kControl);
  batches_ = static_cast<Index>(most[0]);

  const Index n = problem_.graph->num_vertices();
  pos_.resize(static_cast<std::size_t>(n));
  stamp_.assign(static_cast<std::size_t>(n), 0);
  blk_nnz_.resize(static_cast<std::size_t>(p));
  curs_.resize(static_cast<std::size_t>(p));
  targets_.resize(static_cast<std::size_t>(layers) + 1);
  exch_.resize(static_cast<std::size_t>(layers));
  for (Exchange& e : exch_) {
    e.plan.ready = true;
    e.plan.codec = algebra_.run().compress;
    e.plan.recv_row_offsets.assign(static_cast<std::size_t>(p) + 1, 0);
    e.plan.send_row_offsets.assign(static_cast<std::size_t>(p) + 1, 0);
    e.plan.blocks.resize(static_cast<std::size_t>(p));
    e.tblocks.resize(static_cast<std::size_t>(p));
  }
}

void SampledRunner::build_batch(int epoch, Index batch,
                                const Matrix& features_block,
                                EpochStats& stats) {
  const int p = comm_.size();
  const int rank = comm_.rank();
  const Index layers = config_.num_layers();
  const Csr& at = problem_.at;
  const RunConfig& run = algebra_.run();

  // Seeds: this rank's slice of the per-epoch shuffle, re-sorted
  // ascending so every downstream ordering (loss terms, landing rows,
  // accumulation) matches the full-batch row order.
  auto& seeds = targets_[static_cast<std::size_t>(layers)];
  seeds.clear();
  const std::size_t lo = static_cast<std::size_t>(batch) *
                         static_cast<std::size_t>(run.sample_batch);
  const std::size_t hi = std::min(
      lo + static_cast<std::size_t>(run.sample_batch), shuffled_.size());
  for (std::size_t i = lo; i < hi && lo < shuffled_.size(); ++i) {
    seeds.push_back(shuffled_[i]);
  }
  std::sort(seeds.begin(), seeds.end());
  seed_labels_.clear();
  for (Index v : seeds) {
    seed_labels_.push_back(
        problem_.graph->labels[static_cast<std::size_t>(v)]);
  }

  // The whole build is serial per rank (plus collectives), so the sampled
  // structure is bitwise identical at any thread count; the stream is
  // keyed by (seed, epoch, batch, rank), so it is independent of
  // restarts.
  Rng rng = Rng(kSampleSeed)
                .split(2)
                .split(static_cast<std::uint64_t>(epoch) + 1)
                .split(static_cast<std::uint64_t>(batch) + 1)
                .split(static_cast<std::uint64_t>(rank) + 1);

  for (Index k = layers - 1; k >= 0; --k) {
    // Hop h = layers-1-k outward from the seeds uses fanouts[h].
    const Index fanout =
        run.sample_fanouts[static_cast<std::size_t>(layers - 1 - k)];
    const auto& up_targets = targets_[static_cast<std::size_t>(k) + 1];
    Exchange& e = exch_[static_cast<std::size_t>(k)];

    // ---- Fan-out sample the local A^T stripe rows of the upper targets.
    // Floyd's algorithm draws `fanout` distinct positions without
    // replacement; positions are re-sorted so each row's sampled columns
    // stay ascending (the full-batch accumulation order).
    samp_row_ptr_.clear();
    samp_row_ptr_.push_back(0);
    samp_cols_.clear();
    samp_vals_.clear();
    for (Index i : up_targets) {
      const Index r0 = at.row_ptr()[static_cast<std::size_t>(i)];
      const Index r1 = at.row_ptr()[static_cast<std::size_t>(i) + 1];
      const Index deg = r1 - r0;
      if (deg <= fanout) {
        for (Index q = r0; q < r1; ++q) {
          samp_cols_.push_back(at.col_idx()[static_cast<std::size_t>(q)]);
          samp_vals_.push_back(at.values()[static_cast<std::size_t>(q)]);
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
          samp_cols_.push_back(at.col_idx()[static_cast<std::size_t>(q)]);
          samp_vals_.push_back(at.values()[static_cast<std::size_t>(q)] *
                               scale);
        }
      }
      samp_row_ptr_.push_back(static_cast<Index>(samp_cols_.size()));
    }

    // ---- Dedup the sampled columns and partition them by owner.
    // Sorting makes the per-owner runs contiguous (ownership ranges are
    // ascending), so the need lists come out ascending per peer.
    ++cur_stamp_;
    needs_.clear();
    for (Index g : samp_cols_) {
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

    auto& targets = targets_[static_cast<std::size_t>(k)];
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
    const auto nnz = static_cast<Index>(samp_cols_.size());
    owners_.resize(static_cast<std::size_t>(nnz));
    std::fill(blk_nnz_.begin(), blk_nnz_.end(), Index{0});
    for (Index q = 0; q < nnz; ++q) {
      const Index g = samp_cols_[static_cast<std::size_t>(q)];
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
      for (Index q = samp_row_ptr_[static_cast<std::size_t>(r)];
           q < samp_row_ptr_[static_cast<std::size_t>(r) + 1]; ++q) {
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
          pos_[static_cast<std::size_t>(samp_cols_[static_cast<std::size_t>(q)])];
      blk.values()[static_cast<std::size_t>(w)] =
          samp_vals_[static_cast<std::size_t>(q)];
    }

    // Backward operators. Layer 1's backward sends no contributions (its
    // weight gradient is (T^1)^T G^1), so exchange 0 needs none.
    if (k == 0) continue;
    for (int j = 0; j < p; ++j) {
      plan.blocks[static_cast<std::size_t>(j)].transposed_into(
          e.tblocks[static_cast<std::size_t>(j)], tscratch_);
    }
  }

  // ---- Compact the level-0 features: layer 1 exchanges and aggregates
  // these rows (input()).
  const std::vector<Index>& f0_rows = targets_[0];
  ScopedPhase scope(stats.profiler, Phase::kHaloPack);
  features_.resize(static_cast<Index>(f0_rows.size()), config_.dims.front());
  for (std::size_t r = 0; r < f0_rows.size(); ++r) {
    const auto src = features_block.row(f0_rows[r] - row_lo_);
    std::copy(src.begin(), src.end(),
              features_.row(static_cast<Index>(r)).begin());
  }
}

const Matrix& SampledRunner::input(EpochStats& stats) {
  spmm_at(1, features_, t1_, stats);
  return t1_;
}

void SampledRunner::spmm_at(Index layer, const Matrix& h, Matrix& t,
                            EpochStats& stats) {
  // The batch's halo exchange of the SpMM input (the level-0 features, H,
  // or H W on a narrowing layer) and its stage sweep; a per-batch plan
  // never arms staleness or pre-aggregation.
  const int rank = comm_.rank();
  HaloPlan& plan = exch_[static_cast<std::size_t>(layer) - 1].plan;
  t.resize(static_cast<Index>(targets_[static_cast<std::size_t>(layer)].size()),
           h.cols());
  t.set_zero();
  halo_spmm_pipeline(h, &plan.blocks[static_cast<std::size_t>(rank)], rank,
                     comm_, plan, CommCategory::kHalo, algebra_.machine(),
                     stats, t);
}

void SampledRunner::spmm_a(Index layer, const Matrix& g, Matrix& u,
                           EpochStats& stats) {
  const int p = comm_.size();
  const int rank = comm_.rank();
  Exchange& e = exch_[static_cast<std::size_t>(layer) - 1];
  const Index f = g.cols();
  const auto n_dn =
      static_cast<Index>(targets_[static_cast<std::size_t>(layer) - 1].size());
  const std::size_t recv_total =
      e.plan.recv_row_offsets[static_cast<std::size_t>(p)];

  // Stacked contribution rows: [0, recv_total) owed to peers (in recv
  // order), then this rank's own F_{k-1} rows. accumulate=false
  // zero-fills each transposed block's rows, and the chunks are
  // disjoint, so every row is written exactly once.
  {
    ScopedPhase scope(stats.profiler, Phase::kSpmm);
    partial_.resize(static_cast<Index>(recv_total) + n_dn, f);
    for (int j = 0; j < p; ++j) {
      const Csr& tb = e.tblocks[static_cast<std::size_t>(j)];
      if (tb.rows() == 0) continue;
      const auto row0 = static_cast<Index>(
          j == rank ? recv_total
                    : e.plan.recv_row_offsets[static_cast<std::size_t>(j)]);
      spmm_csr_kernel<Real>(tb.rows(), tb.row_ptr().data(),
                            tb.col_idx().data(), tb.values().data(),
                            g.data(), f, partial_.data() + row0 * f,
                            /*accumulate=*/false);
      stats.work.add_spmm(algebra_.machine(), static_cast<double>(tb.nnz()),
                          static_cast<double>(f), block_degree(tb));
    }
  }

  // Contributions travel back along the forward plan's mirror: packed
  // in recv order, landing scatter-add on the compact send positions.
  while (iota_.size() < recv_total) {
    iota_.push_back(static_cast<Index>(iota_.size()));
  }
  u.resize(n_dn, f);
  halo_exchange_contributions(
      partial_, std::span<const Index>(iota_.data(), recv_total),
      std::span<const std::size_t>(e.plan.recv_row_offsets),
      /*self_partial=*/true, static_cast<Index>(recv_total),
      std::span<const Index>(e.plan.send_rows),
      std::span<const std::size_t>(e.plan.send_row_offsets), rank, comm_,
      e.plan, CommCategory::kHalo, algebra_.machine(), stats, u);
}

EpochResult SampledRunner::run_epoch(
    int epoch, const Matrix& features_block, EpochStats& stats,
    const std::function<const Matrix&(Aggregation&)>& forward,
    const std::function<void(Aggregation&, std::span<const Index>, Real)>&
        backward) {
  EpochResult result;
  if (batches_ == 0) return result;  // nothing labeled anywhere

  // Per-epoch shuffle of this rank's labeled rows (Fisher–Yates on a
  // (seed, epoch, rank)-keyed stream: restart-deterministic, and
  // independent of every other rank's stream).
  shuffled_ = labeled_;
  Rng rng = Rng(kSampleSeed)
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
  for (Index b = 0; b < batches_; ++b) {
    build_batch(epoch, b, features_block, stats);
    const Matrix& log_probs = forward(*this);
    // Blocking double[3] reduce: elements 0/1 sum in the same
    // rank-ascending order as the full-batch double[2] reduce, so a
    // seeds-everything batch reproduces its loss bitwise; element 2
    // carries the global seed count (the gradient scale, known only after
    // the shuffle).
    std::array<double, 3> acc = {0, 0,
                                 static_cast<double>(seed_labels_.size())};
    {
      ScopedPhase scope(stats.profiler, Phase::kMisc);
      const std::array<double, 2> terms = loss_terms(log_probs, seed_labels_);
      acc[0] = terms[0];
      acc[1] = terms[1];
    }
    comm_.allreduce_sum(std::span<double>(acc), CommCategory::kControl);
    // G^L's scale is the global batch size (mean NLL over the batch), so
    // an all-seeds batch reproduces the full-batch scale -1/labeled_count
    // exactly.
    backward(*this, seed_labels_,
             acc[2] > 0 ? Real{-1} / static_cast<Real>(acc[2]) : Real{0});
    if (acc[2] > 0) loss_acc += acc[0] / acc[2];
    hits_acc += acc[1];
  }

  result.loss = loss_acc / static_cast<double>(batches_);
  result.accuracy = problem_.labeled_count > 0
                        ? hits_acc / static_cast<double>(problem_.labeled_count)
                        : 0.0;
  return result;
}

}  // namespace dist

}  // namespace cagnet
