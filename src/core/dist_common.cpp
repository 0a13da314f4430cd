#include "src/core/dist_common.hpp"

#include <algorithm>
#include <array>
#include <string>
#include <utility>

#include "src/dense/gemm.hpp"
#include "src/dense/ops.hpp"
#include "src/sparse/spmm_kernel.hpp"
#include "src/util/error.hpp"
#include "src/util/parallel.hpp"

namespace cagnet {

DistProblem DistProblem::prepare(const Graph& graph) {
  DistProblem p;
  p.graph = &graph;
  p.at = graph.adjacency.transposed();
  for (Index label : graph.labels) {
    if (label >= 0) ++p.labeled_count;
  }
  return p;
}

DistProblem DistProblem::prepare(const Graph& graph, int parts,
                                 const std::string& partitioner,
                                 std::uint64_t seed) {
  const PartitionerSpec* spec = find_partitioner(partitioner);
  CAGNET_CHECK(spec != nullptr, "unknown partitioner: " + partitioner);
  Partition part = spec->make(graph.adjacency, parts, seed);

  DistProblem p;
  p.partitioner = partitioner;
  if (partitioner == "block") {
    // Contiguous already: no relabeling, identical training to the
    // identity form (part_offsets reproduce block_range exactly).
    p.graph = &graph;
    p.partition = std::move(part);
  } else {
    const std::vector<Index> perm = partition_permutation(part);
    const Index n = graph.num_vertices();
    auto owned = std::make_shared<Graph>();
    owned->name = graph.name + "+" + partitioner;
    owned->num_classes = graph.num_classes;
    owned->adjacency = graph.adjacency.permuted(
        std::span<const Index>(perm));
    owned->features = Matrix(graph.features.rows(), graph.features.cols());
    owned->labels.resize(graph.labels.size());
    Partition sorted;
    sorted.parts = part.parts;
    sorted.owner.resize(static_cast<std::size_t>(n));
    for (Index r = 0; r < n; ++r) {
      const Index v = perm[static_cast<std::size_t>(r)];
      std::copy(graph.features.row(v).begin(), graph.features.row(v).end(),
                owned->features.row(r).begin());
      owned->labels[static_cast<std::size_t>(r)] =
          graph.labels[static_cast<std::size_t>(v)];
      sorted.owner[static_cast<std::size_t>(r)] =
          part.owner[static_cast<std::size_t>(v)];
    }
    p.partition = std::move(sorted);
    p.perm = perm;
    p.owned_graph_ = owned;
    p.graph = p.owned_graph_.get();
  }
  p.part_offsets = partition_offsets(p.partition);
  p.edgecut = edge_cut(p.graph->adjacency, p.partition);
  p.at = p.graph->adjacency.transposed();
  for (Index label : p.graph->labels) {
    if (label >= 0) ++p.labeled_count;
  }
  return p;
}

EpochStats EpochStats::reduce_max(const EpochStats& mine, Comm& comm) {
  // Serialize the numeric payload into one vector, allreduce-max it, and
  // unpack. Loss/accuracy are identical on all ranks already (reduced in
  // the trainer), so max is a no-op for them.
  constexpr std::size_t kPhases = Profiler::kNumPhases;
  constexpr std::size_t kCats = CostMeter::kNumCategories;
  std::vector<double> payload;
  payload.reserve(2 + kPhases + 2 * kCats + 3 + 1 + 4);
  payload.push_back(mine.result.loss);
  payload.push_back(mine.result.accuracy);
  for (std::size_t i = 0; i < kPhases; ++i) {
    payload.push_back(mine.profiler.seconds(static_cast<Phase>(i)));
  }
  for (std::size_t i = 0; i < kCats; ++i) {
    const auto cat = static_cast<CommCategory>(i);
    payload.push_back(mine.comm.latency_units(cat));
    payload.push_back(mine.comm.words(cat));
  }
  // Each rank's saving (serialized - overlapped) is maxed as one value:
  // maxing the overlapped totals separately would pair the busiest rank's
  // serialized seconds with another rank's overlapped seconds, a saving
  // no rank made.
  payload.push_back(mine.comm.overlap_serialized_seconds());
  payload.push_back(mine.comm.overlap_serialized_seconds() -
                    mine.comm.overlap_overlapped_seconds());
  payload.push_back(mine.comm.overlap_regions());
  payload.push_back(mine.comm.stale_saved_words());
  payload.push_back(mine.work.spmm_seconds());
  payload.push_back(mine.work.gemm_seconds());
  payload.push_back(mine.work.spmm_flops());
  payload.push_back(mine.work.gemm_flops());

  comm.allreduce_max(std::span<double>(payload), CommCategory::kControl);

  EpochStats out;
  std::size_t k = 0;
  out.result.loss = payload[k++];
  out.result.accuracy = payload[k++];
  for (std::size_t i = 0; i < kPhases; ++i) {
    out.profiler.add(static_cast<Phase>(i), payload[k++]);
  }
  for (std::size_t i = 0; i < kCats; ++i) {
    const auto cat = static_cast<CommCategory>(i);
    const double lat = payload[k++];
    const double words = payload[k++];
    out.comm.add(cat, lat, words);
  }
  out.comm.restore_overlap_totals(payload[k], payload[k] - payload[k + 1],
                                  payload[k + 2]);
  k += 3;
  out.comm.restore_stale_saved_words(payload[k]);
  k += 1;
  out.work = WorkMeter::from_values(payload[k], payload[k + 1],
                                    payload[k + 2], payload[k + 3]);
  return out;
}

namespace dist {

void drain_comm(const Comm& comm) noexcept {
  if (!comm.valid()) return;
  try {
    comm.quiesce();
  } catch (...) {
    // Aborted world: peers were released by the abort flag.
  }
}

std::array<double, 2> loss_terms(const Matrix& log_probs,
                                 std::span<const Index> labels) {
  double loss_sum = 0;
  double hits = 0;
  for (Index r = 0; r < log_probs.rows(); ++r) {
    const Index label = labels[static_cast<std::size_t>(r)];
    if (label < 0) continue;
    loss_sum -= log_probs(r, label);
    const auto row = log_probs.row(r);
    const Index pred = static_cast<Index>(
        std::max_element(row.begin(), row.end()) - row.begin());
    if (pred == label) hits += 1;
  }
  return {loss_sum, hits};
}

EpochResult reduce_loss_accuracy(const Matrix& local_log_probs,
                                 std::span<const Index> labels,
                                 Index labeled_count, Comm& comm) {
  std::array<double, 2> terms = loss_terms(local_log_probs, labels);
  comm.allreduce_sum(std::span<double>(terms), CommCategory::kControl);
  EpochResult result;
  result.loss = labeled_count > 0
                    ? terms[0] / static_cast<double>(labeled_count)
                    : 0.0;
  result.accuracy = labeled_count > 0
                        ? terms[1] / static_cast<double>(labeled_count)
                        : 0.0;
  return result;
}

double block_degree(const Csr& block) {
  return block.rows() > 0
             ? static_cast<double>(block.nnz()) /
                   static_cast<double>(block.rows())
             : 0.0;
}

void PendingDenseStage::post(const Matrix& mine, Matrix& recv, Index rows,
                             Index cols, int root, Comm& comm,
                             CommCategory cat) {
  if (comm.rank() == root) {
    CAGNET_CHECK(mine.rows() == rows && mine.cols() == cols,
                 "PendingDenseStage: root block shape mismatch");
    op_ = comm.ibroadcast_from(std::span<const Real>(mine.flat()),
                               std::span<Real>{}, root, cat);
    result_ = &mine;
    return;
  }
  recv.resize(rows, cols);
  op_ = comm.ibroadcast_from(std::span<const Real>{}, recv.flat(), root, cat);
  result_ = &recv;
}

const Matrix* PendingDenseStage::wait() {
  CAGNET_CHECK(result_ != nullptr, "PendingDenseStage: wait before post");
  op_.wait();
  const Matrix* result = result_;
  result_ = nullptr;
  return result;
}

void overlapped_dense_stages(
    int stages,
    const std::function<void(int, PendingDenseStage&, Matrix&)>& post_stage,
    const std::function<void(int, const Matrix*)>& compute_stage,
    Matrix& recv0, Matrix& recv1, CostMeter& meter, const WorkMeter& work,
    const MachineModel& machine, Profiler& profiler) {
  if (stages == 0) return;
  PendingDenseStage dn[2];
  Matrix* recv[2] = {&recv0, &recv1};
  {
    ScopedPhase scope(profiler, Phase::kDenseComm);
    post_stage(0, dn[0], *recv[0]);
  }
  OverlapScope region(meter, work, machine);
  for (int s = 0; s < stages; ++s) {
    const int cur = s & 1;
    const int nxt = 1 - cur;
    const Matrix* block = nullptr;
    {
      ScopedPhase scope(profiler, Phase::kDenseComm);
      block = dn[cur].wait();
    }
    region.close();  // stage s's arrival was in flight behind compute s-1
    if (s + 1 < stages) {
      ScopedPhase scope(profiler, Phase::kDenseComm);
      post_stage(s + 1, dn[nxt], *recv[nxt]);
    }
    region.open();
    compute_stage(s, block);
  }
  region.close();
}

void partial_summa_times_weight(const Matrix& t, const Matrix& w, int parts,
                                int my_col, Comm& row_comm,
                                const MachineModel& machine,
                                EpochStats& stats, DistWorkspace& ws,
                                Matrix& z) {
  const Index local_rows = t.rows();
  const Index f_in = w.rows();
  const Index f_out = w.cols();
  const auto [fo0, fo1] = block_range(f_out, parts, my_col);
  z.resize(local_rows, fo1 - fo0);
  z.set_zero();

  const auto gemm_stage = [&](int m, const Matrix* t_m) {
    ScopedPhase scope(stats.profiler, Phase::kMisc);
    const auto [fm0, fm1] = block_range(f_in, parts, m);
    w.block_into(fm0, fo0, fm1 - fm0, fo1 - fo0, ws.w_block);
    gemm(Trans::kNo, Trans::kNo, Real{1}, *t_m, ws.w_block, Real{1}, z);
    stats.work.add_gemm(machine, 2.0 * static_cast<double>(local_rows) *
                                     static_cast<double>(fm1 - fm0) *
                                     static_cast<double>(fo1 - fo0));
  };
  const auto stage_cols = [&](int m) {
    const auto [fm0, fm1] = block_range(f_in, parts, m);
    return fm1 - fm0;
  };

  // The stage-m+1 T panel is in flight while the stage-m GEMM
  // accumulates. Source-release contract: peers may still be copying this
  // rank's T panels after we return; the caller quiesces row_comm before
  // T is next rewritten (the 2D/3D algebras do it at their stage-loop
  // entry, where peers have long drained — off the critical path).
  overlapped_dense_stages(
      parts,
      [&](int m, PendingDenseStage& dn, Matrix& recv) {
        dn.post(t, recv, local_rows, stage_cols(m), m, row_comm,
                CommCategory::kDense);
      },
      gemm_stage, ws.stage_recv, ws.stage_recv2, row_comm.meter(),
      stats.work, machine, stats.profiler);
}

void reduce_times_weight(const Matrix& t, const Matrix& w, int parts,
                         int my_col, Comm& row_comm,
                         const MachineModel& machine, EpochStats& stats,
                         DistWorkspace& ws, Matrix& z) {
  const Index local_rows = t.rows();
  const Index f_in = w.rows();
  const Index f_out = w.cols();
  const auto [fi0, fi1] = block_range(f_in, parts, my_col);
  {
    // Release point: row peers may still read the previous call's
    // staged term, which is rewritten below.
    ScopedPhase scope(stats.profiler, Phase::kDenseComm);
    row_comm.quiesce();
  }
  {
    // This rank's term T_j W_j of the contraction, full f_out wide, built
    // in `z` (which keeps that capacity for the next call), then staged
    // slice-major: process column m's reduce-scatter chunk is column
    // slice m of every row, contiguous.
    ScopedPhase scope(stats.profiler, Phase::kMisc);
    w.block_into(fi0, 0, fi1 - fi0, f_out, ws.w_block);
    z.resize(local_rows, f_out);
    gemm(Trans::kNo, Trans::kNo, Real{1}, t, ws.w_block, Real{0}, z);
    stats.work.add_gemm(machine, 2.0 * static_cast<double>(local_rows) *
                                     static_cast<double>(fi1 - fi0) *
                                     static_cast<double>(f_out));
    ws.z_staged.resize(local_rows, f_out);
    Real* out = ws.z_staged.data();
    for (int m = 0; m < parts; ++m) {
      const auto [c0, c1] = block_range(f_out, parts, m);
      for (Index r = 0; r < local_rows; ++r) {
        const auto row = z.row(r);
        out = std::copy(row.begin() + c0, row.begin() + c1, out);
      }
    }
  }
  const auto [fo0, fo1] = block_range(f_out, parts, my_col);
  z.resize(local_rows, fo1 - fo0);
  ScopedPhase scope(stats.profiler, Phase::kDenseComm);
  row_comm
      .ireduce_scatter_sum(std::span<const Real>(ws.z_staged.flat()),
                           z.flat(), CommCategory::kDense)
      .wait();
}

void allgather_feature_rows(const Matrix& local, Index full_cols, int parts,
                            Comm& row_comm, Profiler& profiler,
                            DistWorkspace& ws, Matrix& full) {
  {
    // Posted and waited in place: the blocking form would add a release
    // hold on every member here.
    ScopedPhase scope(profiler, Phase::kDenseComm);
    row_comm
        .iallgatherv_into(std::span<const Real>(local.flat()), ws.gathered,
                          CommCategory::kDense)
        .wait();
  }
  full.resize(local.rows(), full_cols);
  for (int jj = 0; jj < parts; ++jj) {
    const auto [c0, c1] = block_range(full_cols, parts, jj);
    const auto chunk = ws.gathered.chunk(jj);
    CAGNET_CHECK(chunk.size() == static_cast<std::size_t>(local.rows() *
                                                          (c1 - c0)),
                 "allgather_feature_rows: chunk size mismatch");
    for (Index r = 0; r < local.rows(); ++r) {
      std::copy(chunk.begin() + r * (c1 - c0),
                chunk.begin() + (r + 1) * (c1 - c0),
                full.data() + r * full_cols + c0);
    }
  }
}

void allreduce_gradient(Index layer, Matrix& y, CompressMode codec,
                        std::vector<CompressBuf>& residuals, Comm& comm,
                        Profiler& profiler) {
  if (codec == CompressMode::kOff) {
    ScopedPhase scope(profiler, Phase::kDenseComm);
    comm.allreduce_sum(y.flat(), CommCategory::kDense);
    return;
  }
  const auto slot = static_cast<std::size_t>(layer - 1);
  if (residuals.size() <= slot) residuals.resize(slot + 1);
  CompressBuf& buf = residuals[slot];
  buf.error_feedback = true;
  // The op times itself (wire wait under kDenseComm, codec under
  // kCompressPack).
  comm.allreduce_sum_compressed(y.flat(), codec, buf, &profiler);
}

std::vector<Index> row_starts(const DistProblem& problem, int parts) {
  std::vector<Index> starts(static_cast<std::size_t>(parts) + 1);
  for (int j = 0; j < parts; ++j) {
    starts[static_cast<std::size_t>(j)] = problem.row_range(parts, j).first;
  }
  starts[static_cast<std::size_t>(parts)] = problem.graph->num_vertices();
  return starts;
}

void build_halo_plan(const std::function<const Csr*(int)>& block_of,
                     int self, Comm& comm, HaloPlan& plan) {
  const int p = comm.size();
  plan.blocks.assign(static_cast<std::size_t>(p), Csr{});
  plan.need_rows.clear();
  plan.recv_row_offsets.assign(static_cast<std::size_t>(p) + 1, 0);

  std::vector<char> seen;
  std::vector<Index> new_col;
  std::vector<Index> need;
  for (int j = 0; j < p; ++j) {
    plan.recv_row_offsets[static_cast<std::size_t>(j) + 1] =
        plan.recv_row_offsets[static_cast<std::size_t>(j)];
    if (j == self) continue;
    const Csr* block = block_of(j);
    if (block == nullptr) continue;
    // Distinct peer-local columns the block touches, ascending: the exact
    // remote rows Section IV-A defines edgecut_P(A) over.
    seen.assign(static_cast<std::size_t>(block->cols()), 0);
    for (Index c : block->col_idx()) seen[static_cast<std::size_t>(c)] = 1;
    new_col.assign(static_cast<std::size_t>(block->cols()), Index{-1});
    need.clear();
    for (Index c = 0; c < block->cols(); ++c) {
      if (!seen[static_cast<std::size_t>(c)]) continue;
      new_col[static_cast<std::size_t>(c)] =
          static_cast<Index>(need.size());
      need.push_back(c);
    }
    plan.blocks[static_cast<std::size_t>(j)] = block->with_remapped_columns(
        std::span<const Index>(new_col), static_cast<Index>(need.size()));
    plan.need_rows.insert(plan.need_rows.end(), need.begin(), need.end());
    plan.recv_row_offsets[static_cast<std::size_t>(j) + 1] =
        plan.need_rows.size();
  }

  // The one-time index request-and-send: every rank learns which of its
  // rows each peer needs. Setup traffic, charged as kControl so the
  // per-epoch halo volume stays exactly edgecut * f.
  Gathered<Index> requested;
  comm.alltoallv_into(std::span<const Index>(plan.need_rows),
                      std::span<const std::size_t>(plan.recv_row_offsets),
                      requested, CommCategory::kControl);
  plan.send_rows.assign(requested.data.begin(), requested.data.end());
  plan.send_row_offsets = requested.offsets;
  for (HaloPlan::PackBuf& buf : plan.pack) {
    buf.send_elem_offsets.assign(static_cast<std::size_t>(p) + 1, 0);
    buf.has_release = false;
  }
  plan.next_pack = 0;
  plan.ready = true;
}

namespace {

/// One peer drain of a pipelined halo exchange, the protocol shared by
/// the forward and backward sweeps: provably-empty chunks are
/// skip_source'd (no rendezvous), anything else is awaited zero-copy and
/// size-checked against the plan; the overlap region is closed (pairing
/// the drained charges with the compute that just ran) and reopened for
/// the next stage. Under a lossy row codec (`rmode` != off) the wire
/// carries codec bytes — size-checked against encoded_size_bytes and
/// decoded into `decode_dst` (Phase::kCompressPack). Returns the peer's
/// rows, or nullptr when nothing landed.
const Real* drain_halo_peer(PendingOp& op, int peer,
                            std::size_t expected_elems, CompressMode rmode,
                            Real* decode_dst, OverlapScope& region,
                            Profiler& profiler) {
  const Real* exact_rows = nullptr;
  const std::uint8_t* bytes = nullptr;
  {
    ScopedPhase scope(profiler, Phase::kDenseComm);
    if (expected_elems == 0) {
      op.skip_source(peer);
    } else if (rmode == CompressMode::kOff) {
      const std::span<const Real> chunk = op.await_source<Real>(peer);
      CAGNET_CHECK(chunk.size() == expected_elems,
                   "halo drain: unexpected chunk size");
      exact_rows = chunk.data();
    } else {
      const std::span<const std::uint8_t> chunk =
          op.await_source<std::uint8_t>(peer);
      CAGNET_CHECK(chunk.size() == encoded_size_bytes(rmode, expected_elems),
                   "halo drain: unexpected compressed chunk size");
      bytes = chunk.data();
    }
  }
  region.close();
  region.open();
  if (rmode == CompressMode::kOff) return exact_rows;
  if (bytes == nullptr) return nullptr;
  ScopedPhase scope(profiler, Phase::kCompressPack);
  compress_decode(rmode, bytes, expected_elems, decode_dst);
  return decode_dst;
}

/// Threaded row gather: copy `rows` of `src` (f-wide) into `dst`
/// row-major. Chunks write disjoint destination rows, so every chunk
/// count is bitwise-identical.
void pack_rows_threaded(const Matrix& src, std::span<const Index> rows,
                        Index f, Real* dst) {
  const auto n = static_cast<Index>(rows.size());
  parallel_for(n,
               plan_chunks(static_cast<double>(n) * static_cast<double>(f),
                           kMinElemsPerChunk, n),
               [&](Index lo, Index hi) {
                 for (Index k = lo; k < hi; ++k) {
                   const Real* from =
                       src.data() + rows[static_cast<std::size_t>(k)] * f;
                   std::copy(from, from + f, dst + k * f);
                 }
               });
}

/// The forward exchange's landed-row offsets: the preagg plan's effective
/// layout when aggregation is armed, the raw plan's otherwise.
const std::vector<std::size_t>& fwd_recv_offsets(const HaloPlan& plan) {
  return plan.preagg.active ? plan.preagg.eff_recv_row_offsets
                            : plan.recv_row_offsets;
}

/// Drop the empty rows of `m` (row order preserved): col_idx/values are
/// untouched, only row_ptr compacts, so the result's row k is the k-th
/// nonzero row of `m` — exactly the order the receiver's agg_land_rows
/// were recorded in.
Csr compact_nonzero_rows(const Csr& m) {
  std::vector<Index> row_ptr;
  row_ptr.reserve(static_cast<std::size_t>(m.rows()) + 1);
  row_ptr.push_back(0);
  for (Index r = 0; r < m.rows(); ++r) {
    if (m.row_degree(r) > 0) row_ptr.push_back(m.row_ptr()[r + 1]);
  }
  std::vector<Index> cols(m.col_idx().begin(), m.col_idx().end());
  std::vector<Real> vals(m.values().begin(), m.values().end());
  // Hoisted: argument evaluation order is unspecified, so reading
  // row_ptr.size() inline could observe the vector already moved-from.
  const Index nzr = static_cast<Index>(row_ptr.size()) - 1;
  return Csr::from_parts(nzr, m.cols(), std::move(row_ptr), std::move(cols),
                         std::move(vals));
}

/// Accumulate one peer's landed forward rows into T: the compacted-block
/// SpMM on the raw path (bitwise the pre-stale/pre-preagg sweep), or a
/// scatter-add of the pre-reduced rows onto their distinct local T rows
/// when the pair aggregates (disjoint chunked writes, deterministic).
void halo_accumulate_peer(HaloPlan& plan, int j, const Real* rows_j, Index f,
                          const MachineModel& machine, EpochStats& stats,
                          Matrix& t) {
  const HaloPlan::PreAggPlan& pa = plan.preagg;
  if (pa.active && pa.agg_recv[static_cast<std::size_t>(j)] != 0) {
    const std::size_t k0 = pa.agg_land_offsets[static_cast<std::size_t>(j)];
    const std::size_t k1 =
        pa.agg_land_offsets[static_cast<std::size_t>(j) + 1];
    if (k0 == k1) return;
    ScopedPhase scope(stats.profiler, Phase::kHaloPack);
    const auto rows_n = static_cast<Index>(k1 - k0);
    parallel_for(
        rows_n,
        plan_chunks(static_cast<double>(rows_n) * static_cast<double>(f),
                    kMinElemsPerChunk, rows_n),
        [&](Index lo, Index hi) {
          for (Index k = lo; k < hi; ++k) {
            const Real* s = rows_j + k * f;
            Real* d = t.data() +
                      pa.agg_land_rows[k0 + static_cast<std::size_t>(k)] * f;
            for (Index c = 0; c < f; ++c) d[c] += s[c];
          }
        });
    return;
  }
  const Csr& a = plan.blocks[static_cast<std::size_t>(j)];
  if (a.nnz() == 0) return;
  ScopedPhase scope(stats.profiler, Phase::kSpmm);
  spmm_csr_kernel<Real>(a.rows(), a.row_ptr().data(), a.col_idx().data(),
                        a.values().data(), rows_j, f, t.data(),
                        /*accumulate=*/true);
  stats.work.add_spmm(machine, static_cast<double>(a.nnz()),
                      static_cast<double>(f), block_degree(a));
}

/// The fixed-interval skip epoch: no exchange at all — no pack-buffer
/// claim, no quiesce, zero kHalo latency and words. Every remote stage
/// replays the cached landed rows through the identical accumulation,
/// crediting the avoided exact words to the meter; the self stage runs
/// as usual. Allocation-free (the cache slots were sized by the last
/// refresh epoch).
void halo_stale_replay(const Matrix& h, const Csr* self_block, int self,
                       Comm& comm, HaloPlan& plan,
                       const MachineModel& machine, EpochStats& stats,
                       Matrix& t) {
  HaloPlan::StaleState& st = plan.stale;
  const int p = comm.size();
  const Index f = h.cols();
  const auto slot = static_cast<std::size_t>(st.cur_slot);
  const std::vector<std::size_t>& roff = fwd_recv_offsets(plan);
  CAGNET_CHECK(slot < st.cache.size() && st.cache_f[slot] == f,
               "halo stale replay: cache slot not filled");
  comm.notify_event(CommCategory::kHalo, "halo stale skip");
  for (int j = 0; j < p; ++j) {
    if (j == self) {
      if (self_block != nullptr) {
        ScopedPhase scope(stats.profiler, Phase::kSpmm);
        self_block->spmm(h, t, /*accumulate=*/true);
        stats.work.add_spmm(machine, static_cast<double>(self_block->nnz()),
                            static_cast<double>(f),
                            block_degree(*self_block));
      }
      continue;
    }
    const std::size_t rows_n = roff[static_cast<std::size_t>(j) + 1] -
                               roff[static_cast<std::size_t>(j)];
    if (rows_n == 0) continue;
    comm.meter().add_stale_saved(static_cast<double>(rows_n) *
                                 static_cast<double>(f));
    halo_accumulate_peer(plan, j,
                         st.cache[slot].data() +
                             roff[static_cast<std::size_t>(j)] *
                                 static_cast<std::size_t>(f),
                         f, machine, stats, t);
  }
}

/// Sender side of aggregation-before-communication: stage this epoch's
/// outgoing rows — per aggregating destination a partial SpMM of the
/// dest's compacted coupling segment against the whole local H (one
/// pre-reduced row per distinct dest T row, Phase::kSpmm, metered as
/// local work), per raw destination the plain row gather. The staged
/// matrix then rides the ordinary halo_exchange_begin — iota pack rows —
/// so double-buffering, compression, overlap, and charging stay in one
/// place.
void build_preagg_stage(const Matrix& h, int self, HaloPlan& plan,
                        const MachineModel& machine, EpochStats& stats) {
  HaloPlan::PreAggPlan& pa = plan.preagg;
  const Index f = h.cols();
  const int p = static_cast<int>(plan.blocks.size());
  const auto np = static_cast<std::size_t>(p);
  pa.epoch_stage_offsets.resize(np + 1);
  pa.epoch_stage_offsets[0] = 0;
  for (std::size_t d = 0; d < np; ++d) {
    std::size_t rows_d = 0;
    if (static_cast<int>(d) != self) {
      rows_d = pa.agg_send[d] != 0
                   ? static_cast<std::size_t>(pa.seg[d].rows())
                   : plan.send_row_offsets[d + 1] - plan.send_row_offsets[d];
    }
    pa.epoch_stage_offsets[d + 1] = pa.epoch_stage_offsets[d] + rows_d;
  }
  const std::size_t total = pa.epoch_stage_offsets[np];
  {
    ScopedPhase scope(stats.profiler, Phase::kHaloPack);
    pa.stage.resize(static_cast<Index>(total), f);
    if (pa.stage_rows.size() < total) {
      const std::size_t old = pa.stage_rows.size();
      pa.stage_rows.resize(total);
      for (std::size_t k = old; k < total; ++k) {
        pa.stage_rows[k] = static_cast<Index>(k);
      }
    }
  }
  for (std::size_t d = 0; d < np; ++d) {
    const std::size_t off = pa.epoch_stage_offsets[d];
    const std::size_t rows_d = pa.epoch_stage_offsets[d + 1] - off;
    if (rows_d == 0) continue;
    if (pa.agg_send[d] != 0) {
      const Csr& seg = pa.seg[d];
      ScopedPhase scope(stats.profiler, Phase::kSpmm);
      spmm_csr_kernel<Real>(seg.rows(), seg.row_ptr().data(),
                            seg.col_idx().data(), seg.values().data(),
                            h.data(), f,
                            pa.stage.data() + off * static_cast<std::size_t>(f),
                            /*accumulate=*/false);
      stats.work.add_spmm(machine, static_cast<double>(seg.nnz()),
                          static_cast<double>(f), block_degree(seg));
    } else {
      ScopedPhase scope(stats.profiler, Phase::kHaloPack);
      pack_rows_threaded(
          h,
          std::span<const Index>(plan.send_rows.data() +
                                     plan.send_row_offsets[d],
                                 rows_d),
          f, pa.stage.data() + off * static_cast<std::size_t>(f));
    }
  }
}

}  // namespace

bool halo_backward_profitable(std::size_t landed_rows, double rs_rows,
                              Comm& comm) {
  std::array<double, 1> landed = {static_cast<double>(landed_rows)};
  comm.allreduce_max(std::span<double>(landed), CommCategory::kControl);
  return landed[0] <= 0.5 * rs_rows;
}

void halo_begin_epoch(int epoch, bool halo_active, const RunConfig& run,
                      HaloPlan& plan) {
  HaloPlan::StaleState& st = plan.stale;
  st.layer = 0;
  st.cur_slot = 0;
  const int k = run.stale_k;
  if (epoch < 0 || !halo_active || !plan.ready || k <= 1) {
    // k = 1 refreshes every exchange — that IS the exact path — so the
    // cache machinery stays disarmed entirely (bitwise parity, incl.
    // per-category meters; tests/stale_test.cpp pins it).
    st.active = false;
    st.epoch_skip = false;
    return;
  }
  // filled_epoch evolves identically on every rank (same interval, same
  // epoch sequence, first arm always refreshes), so the skip decision is
  // rank-uniform and skip epochs can elide the collective entirely.
  st.active = true;
  const bool refresh = st.filled_epoch < 0 || epoch - st.filled_epoch >= k;
  st.epoch_skip = !refresh;
  if (refresh) st.filled_epoch = epoch;
}

void build_preagg_plan(const Csr& at,
                       const std::function<std::pair<Index, Index>(int)>&
                           peer_rows,
                       Index my_row_lo, Index my_row_hi, int self,
                       HaloPlan& plan) {
  CAGNET_CHECK(plan.ready, "build_preagg_plan: halo plan not built");
  HaloPlan::PreAggPlan& pa = plan.preagg;
  const int p = static_cast<int>(plan.blocks.size());
  const auto np = static_cast<std::size_t>(p);
  pa.active = false;
  pa.agg_send.assign(np, 0);
  pa.agg_recv.assign(np, 0);
  pa.seg.assign(np, Csr{});
  pa.stage_row_offsets.assign(np + 1, 0);
  pa.agg_land_offsets.assign(np + 1, 0);
  pa.agg_land_rows.clear();
  pa.eff_recv_row_offsets.assign(np + 1, 0);
  bool any = false;
  // Receiver side: a source whose compacted coupling block touches fewer
  // distinct output rows than it ships source rows profits from landing
  // one pre-reduced row per output row instead.
  for (int s = 0; s < p; ++s) {
    const auto ss = static_cast<std::size_t>(s);
    pa.eff_recv_row_offsets[ss + 1] = pa.eff_recv_row_offsets[ss];
    pa.agg_land_offsets[ss + 1] = pa.agg_land_offsets[ss];
    if (s == self) continue;
    const std::size_t need =
        plan.recv_row_offsets[ss + 1] - plan.recv_row_offsets[ss];
    if (need == 0) continue;
    const Csr& blk = plan.blocks[ss];
    Index nzr = 0;
    for (Index r = 0; r < blk.rows(); ++r) {
      if (blk.row_degree(r) > 0) ++nzr;
    }
    if (static_cast<std::size_t>(nzr) < need) {
      pa.agg_recv[ss] = 1;
      for (Index r = 0; r < blk.rows(); ++r) {
        if (blk.row_degree(r) > 0) pa.agg_land_rows.push_back(r);
      }
      pa.agg_land_offsets[ss + 1] = pa.agg_land_rows.size();
      pa.eff_recv_row_offsets[ss + 1] += static_cast<std::size_t>(nzr);
      any = true;
    } else {
      pa.eff_recv_row_offsets[ss + 1] += need;
    }
  }
  // Sender side: the same verdict from the destination's segment of the
  // global A^T — identical nnz structure to the block the destination
  // inspected, so both endpoints agree without control traffic.
  for (int d = 0; d < p; ++d) {
    const auto ds = static_cast<std::size_t>(d);
    pa.stage_row_offsets[ds + 1] = pa.stage_row_offsets[ds];
    if (d == self) continue;
    const std::size_t sent =
        plan.send_row_offsets[ds + 1] - plan.send_row_offsets[ds];
    if (sent == 0) continue;
    const auto [d_lo, d_hi] = peer_rows(d);
    const Csr segd = at.block(d_lo, d_hi, my_row_lo, my_row_hi);
    Index nzr = 0;
    for (Index r = 0; r < segd.rows(); ++r) {
      if (segd.row_degree(r) > 0) ++nzr;
    }
    if (static_cast<std::size_t>(nzr) < sent) {
      pa.agg_send[ds] = 1;
      pa.seg[ds] = compact_nonzero_rows(segd);
      pa.stage_row_offsets[ds + 1] += static_cast<std::size_t>(nzr);
      any = true;
    } else {
      pa.stage_row_offsets[ds + 1] += sent;
    }
  }
  pa.active = any;
  if (!any) return;
  const std::size_t total = pa.stage_row_offsets[np];
  pa.stage_rows.resize(total);
  for (std::size_t k = 0; k < total; ++k) {
    pa.stage_rows[k] = static_cast<Index>(k);
  }
  pa.epoch_stage_offsets = pa.stage_row_offsets;
}

PendingOp halo_exchange_begin(const Matrix& src, std::span<const Index> rows,
                              std::span<const std::size_t> row_offsets,
                              Comm& comm, HaloPlan& plan, CommCategory cat,
                              Profiler& profiler) {
  CAGNET_CHECK(plan.ready, "halo_exchange_begin: plan not built");
  const Index f = src.cols();
  const int p = comm.size();
  HaloPlan::PackBuf& buf =
      plan.pack[static_cast<std::size_t>(plan.next_pack)];
  plan.next_pack ^= 1;
  if (buf.has_release) {
    // Release point for the op that used this buffer: it is two exchanges
    // stale, so peers drained it a whole layer ago — a handful of atomic
    // loads, off the critical path (the reason the staging is
    // double-buffered at all).
    ScopedPhase scope(profiler, Phase::kDenseComm);
    comm.quiesce_op(buf.release_ticket);
    buf.has_release = false;
  }
  {
    ScopedPhase scope(profiler, Phase::kHaloPack);
    buf.send_buf.resize(static_cast<Index>(rows.size()), f);
    pack_rows_threaded(src, rows, f, buf.send_buf.data());
    buf.send_elem_offsets.resize(static_cast<std::size_t>(p) + 1);
    for (std::size_t j = 0; j <= static_cast<std::size_t>(p); ++j) {
      buf.send_elem_offsets[j] =
          row_offsets[j] * static_cast<std::size_t>(f);
    }
  }
  const CompressMode rmode =
      p > 1 ? plan.codec : CompressMode::kOff;
  if (rmode != CompressMode::kOff) {
    // Lossy row payload: re-encode the exact pack per destination chunk
    // (chunk boundaries must fall on codec-chunk starts, which per-
    // destination encoding guarantees) and ship the byte buffer instead.
    // No error feedback — halo rows are fresh activations each layer, not
    // an accumulating signal, so a residual would mix unrelated rows.
    ScopedPhase scope(profiler, Phase::kCompressPack);
    buf.send_byte_offsets.resize(static_cast<std::size_t>(p) + 1);
    buf.send_byte_offsets[0] = 0;
    for (std::size_t j = 0; j < static_cast<std::size_t>(p); ++j) {
      const std::size_t elems =
          buf.send_elem_offsets[j + 1] - buf.send_elem_offsets[j];
      buf.send_byte_offsets[j + 1] =
          buf.send_byte_offsets[j] + encoded_size_bytes(rmode, elems);
    }
    buf.send_bytes.resize(
        buf.send_byte_offsets[static_cast<std::size_t>(p)]);
    for (std::size_t j = 0; j < static_cast<std::size_t>(p); ++j) {
      const std::size_t e0 = buf.send_elem_offsets[j];
      const std::size_t e1 = buf.send_elem_offsets[j + 1];
      if (e0 == e1) continue;
      compress_encode(
          rmode,
          std::span<const Real>(buf.send_buf.data() + e0, e1 - e0),
          buf.send_bytes.data() + buf.send_byte_offsets[j],
          /*residual=*/nullptr);
    }
  }
  // Post-only: the caller drains each peer's chunk exactly when the stage
  // that consumes it runs, and wait()s the op once all stages are done.
  // Charges (applied per drain) sum bitwise to a one-shot alltoallv's.
  ScopedPhase scope(profiler, Phase::kDenseComm);
  PendingOp op =
      rmode != CompressMode::kOff
          ? comm.ialltoallv_post(
                std::span<const std::uint8_t>(buf.send_bytes),
                std::span<const std::size_t>(buf.send_byte_offsets),
                CommCategory::kCompressed)
          : comm.ialltoallv_post(
                std::span<const Real>(buf.send_buf.flat()),
                std::span<const std::size_t>(buf.send_elem_offsets), cat);
  buf.release_ticket = op.ticket();
  buf.has_release = true;
  return op;
}

void halo_spmm_pipeline(const Matrix& h, const Csr* self_block, int self,
                        Comm& comm, HaloPlan& plan, CommCategory cat,
                        const MachineModel& machine, EpochStats& stats,
                        Matrix& t) {
  HaloPlan::StaleState& st = plan.stale;
  if (st.active) {
    // One cache slot per forward exchange of the epoch (each layer has
    // its own width); the counter restarts at halo_begin_epoch.
    st.cur_slot = st.layer++;
    if (st.epoch_skip) {
      halo_stale_replay(h, self_block, self, comm, plan, machine, stats, t);
      return;
    }
  } else {
    st.cur_slot = 0;
  }
  PendingOp op;
  if (plan.preagg.active) {
    build_preagg_stage(h, self, plan, machine, stats);
    op = halo_exchange_begin(
        plan.preagg.stage,
        std::span<const Index>(plan.preagg.stage_rows.data(),
                               static_cast<std::size_t>(
                                   plan.preagg.stage.rows())),
        std::span<const std::size_t>(plan.preagg.epoch_stage_offsets), comm,
        plan, cat, stats.profiler);
  } else {
    op = halo_exchange_begin(
        h, std::span<const Index>(plan.send_rows),
        std::span<const std::size_t>(plan.send_row_offsets), comm, plan, cat,
        stats.profiler);
  }
  const int p = comm.size();
  const Index f = h.cols();
  const bool stale_on = st.active;
  const auto slot = static_cast<std::size_t>(st.cur_slot);
  // Landed-row offsets of this exchange: the preagg plan's effective
  // layout when aggregation is armed, the raw plan's otherwise.
  const std::vector<std::size_t>& roff = fwd_recv_offsets(plan);
  const CompressMode rmode =
      p > 1 ? plan.codec : CompressMode::kOff;
  if (rmode != CompressMode::kOff) {
    // Decode staging for every peer's landed rows, laid out at the
    // exchange's recv row offsets so each stage decodes into its own
    // slice.
    ScopedPhase scope(stats.profiler, Phase::kCompressPack);
    plan.recv_decode.resize(roff[static_cast<std::size_t>(p)] *
                            static_cast<std::size_t>(f));
  }
  if (stale_on) {
    // Size this layer's cache slot. Only refresh epochs reach the sweep,
    // and only their first visit allocates; replays never get here.
    if (st.cache.size() <= slot) {
      st.cache.resize(slot + 1);
      st.cache_f.resize(slot + 1, 0);
    }
    st.cache[slot].resize(roff[static_cast<std::size_t>(p)] *
                          static_cast<std::size_t>(f));
    st.cache_f[slot] = f;
  }
  // Ascending stage order is the broadcast loops' accumulation order;
  // keeping it makes every per-element sum an identical ordered sum of
  // identical products, so T stays bitwise the broadcast path's. Each
  // drain closes one overlap region: stage j's rows were in flight while
  // the stages before j multiplied — including the self stage, whose
  // SpMM is the pipeline's headline overlap, so the region opens before
  // the sweep.
  OverlapScope region(comm.meter(), stats.work, machine);
  region.open();
  for (int j = 0; j < p; ++j) {
    const auto js = static_cast<std::size_t>(j);
    if (j == self) {
      if (self_block != nullptr) {
        ScopedPhase scope(stats.profiler, Phase::kSpmm);
        self_block->spmm(h, t, /*accumulate=*/true);
        stats.work.add_spmm(machine, static_cast<double>(self_block->nnz()),
                            static_cast<double>(f),
                            block_degree(*self_block));
      }
      continue;
    }
    const std::size_t expect =
        (roff[js + 1] - roff[js]) * static_cast<std::size_t>(f);
    Real* decode_dst =
        rmode == CompressMode::kOff
            ? nullptr
            : plan.recv_decode.data() +
                  roff[js] * static_cast<std::size_t>(f);
    const Real* rows_j = drain_halo_peer(op, j, expect, rmode, decode_dst,
                                         region, stats.profiler);
    if (stale_on && rows_j != nullptr) {
      // Refresh this peer's cache slice.
      ScopedPhase scope(stats.profiler, Phase::kHaloPack);
      std::copy(rows_j, rows_j + expect,
                st.cache[slot].data() +
                    roff[js] * static_cast<std::size_t>(f));
    }
    halo_accumulate_peer(plan, j, rows_j, f, machine, stats, t);
  }
  region.close();
  ScopedPhase scope(stats.profiler, Phase::kDenseComm);
  op.wait();  // every source drained; this just releases the channel
}

void halo_exchange_contributions(
    const Matrix& partial, std::span<const Index> pack_rows,
    std::span<const std::size_t> pack_row_offsets, bool self_partial,
    Index self_row0, std::span<const Index> land_rows,
    std::span<const std::size_t> land_row_offsets, int self, Comm& comm,
    HaloPlan& plan, CommCategory cat, const MachineModel& machine,
    EpochStats& stats, Matrix& u) {
  PendingOp op = halo_exchange_begin(partial, pack_rows, pack_row_offsets,
                                     comm, plan, cat, stats.profiler);
  const int p = comm.size();
  const Index f = partial.cols();
  const CompressMode rmode =
      p > 1 ? plan.codec : CompressMode::kOff;
  // A rank that accumulates nothing (a 1.5D non-keeper: no self term and
  // every land chunk empty — its u arrives whole with the team broadcast)
  // only owes the drain bookkeeping: skip every source without touching u
  // or coupling to any peer's schedule.
  if (!self_partial &&
      land_row_offsets[static_cast<std::size_t>(p)] ==
          land_row_offsets[0]) {
    ScopedPhase scope(stats.profiler, Phase::kDenseComm);
    for (int r = 0; r < p; ++r) {
      if (r != self) op.skip_source(r);
    }
    op.wait();
    return;
  }
  {
    ScopedPhase scope(stats.profiler, Phase::kHaloPack);
    u.set_zero();
  }
  if (rmode != CompressMode::kOff) {
    ScopedPhase scope(stats.profiler, Phase::kCompressPack);
    plan.recv_decode.resize(
        land_row_offsets[static_cast<std::size_t>(p)] *
        static_cast<std::size_t>(f));
  }
  // Rank-ascending accumulation, the reduce-scatter's exact per-element
  // order (rows a peer did not send are exact +0.0 contributions), so U
  // is bitwise the broadcast path's. The region opens before the sweep
  // so the first drain's charges pair with the accumulation that
  // precedes it.
  OverlapScope region(comm.meter(), stats.work, machine);
  region.open();
  for (int r = 0; r < p; ++r) {
    if (r == self) {
      if (self_partial) {
        ScopedPhase scope(stats.profiler, Phase::kHaloPack);
        const Real* src = partial.data() + self_row0 * f;
        Real* dst = u.data();
        const Index len = u.rows() * f;
        parallel_for(len,
                     plan_chunks(static_cast<double>(len), kMinElemsPerChunk,
                                 len),
                     [&](Index lo, Index hi) {
                       for (Index k = lo; k < hi; ++k) dst[k] += src[k];
                     });
      }
      continue;
    }
    const std::size_t k0 = land_row_offsets[static_cast<std::size_t>(r)];
    const std::size_t k1 = land_row_offsets[static_cast<std::size_t>(r) + 1];
    Real* decode_dst =
        rmode == CompressMode::kOff
            ? nullptr
            : plan.recv_decode.data() + k0 * static_cast<std::size_t>(f);
    const Real* src =
        drain_halo_peer(op, r, (k1 - k0) * static_cast<std::size_t>(f),
                        rmode, decode_dst, region, stats.profiler);
    if (k0 == k1) continue;
    // Scatter-add this peer's landed rows (distinct within a peer, so
    // row chunks write disjoint outputs and threading is deterministic).
    ScopedPhase scope(stats.profiler, Phase::kHaloPack);
    const auto rows_n = static_cast<Index>(k1 - k0);
    parallel_for(
        rows_n,
        plan_chunks(static_cast<double>(rows_n) * static_cast<double>(f),
                    kMinElemsPerChunk, rows_n),
        [&](Index lo, Index hi) {
          for (Index k = lo; k < hi; ++k) {
            const Real* s = src + k * f;
            Real* d = u.data() +
                      land_rows[k0 + static_cast<std::size_t>(k)] * f;
            for (Index c = 0; c < f; ++c) d[c] += s[c];
          }
        });
  }
  region.close();
  ScopedPhase scope(stats.profiler, Phase::kDenseComm);
  op.wait();  // every source drained; this just releases the channel
}

Csr route_csr(const Csr& mine, int dest, Comm& comm, CommCategory cat) {
  const std::array<Index, 3> my_header = {mine.rows(), mine.cols(),
                                          mine.nnz()};
  const auto header = comm.route(std::span<const Index>(my_header), dest, cat);
  auto row_ptr = comm.route(mine.row_ptr(), dest, cat);
  auto col_idx = comm.route(mine.col_idx(), dest, cat);
  auto vals = comm.route(std::span<const Real>(mine.values()), dest, cat);
  return Csr::from_parts(header[0], header[1], std::move(row_ptr),
                         std::move(col_idx), std::move(vals));
}

}  // namespace dist
}  // namespace cagnet
